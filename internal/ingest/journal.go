package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nsync/internal/obs"
)

// Session journal metrics (DESIGN.md §16).
var (
	metJournalAppends = obs.GetCounter("journal.appends")
	metJournalBytes   = obs.GetCounter("journal.bytes")
	metSnapshotTimer  = obs.GetTimer("journal.snapshot")
	metRecovered      = obs.GetCounter("ingest.sessions_recovered")
	metDetached       = obs.GetGauge("session.detached")
)

// Journal record types.
const (
	recAdmit    = 1
	recSnapshot = 2
	recDetach   = 3
	recFinish   = 4
)

const (
	journalMagic   = "NSYNCWAL"
	journalVersion = 1
	// maxJournalRecord bounds a single record payload; anything larger on
	// replay is treated as a torn tail, not trusted as a length.
	maxJournalRecord = 8 << 20
	// maxJournalState bounds the monitor-state blob inside a snapshot. An
	// oversize capture is journaled without state, and an image without
	// state restarts its session at sample 0 (see Recover).
	maxJournalState = 4 << 20
)

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// JournalSyncMode selects when the journal fsyncs its segment file. Every
// append is always write()n through to the kernel before the method
// returns, so all modes survive a kill -9 of the daemon (the page cache
// outlives the process); fsync only narrows the power-loss window.
type JournalSyncMode int

const (
	// JournalSyncInterval (the default) fsyncs at most once per
	// SyncInterval, amortizing the disk flush across appends.
	JournalSyncInterval JournalSyncMode = iota
	// JournalSyncAlways fsyncs after every record.
	JournalSyncAlways
	// JournalSyncNone never fsyncs outside rotation and Close.
	JournalSyncNone
)

// ParseJournalSyncMode maps the -journal-sync flag values.
func ParseJournalSyncMode(s string) (JournalSyncMode, error) {
	switch s {
	case "", "interval":
		return JournalSyncInterval, nil
	case "always":
		return JournalSyncAlways, nil
	case "none":
		return JournalSyncNone, nil
	}
	return 0, fmt.Errorf("ingest: unknown journal sync mode %q (want interval, always, or none)", s)
}

// JournalConfig tunes a Journal. The zero value selects defaults.
type JournalConfig struct {
	// SyncMode selects the fsync policy (default: interval).
	SyncMode JournalSyncMode
	// SyncInterval is the flush period for JournalSyncInterval
	// (default 100ms).
	SyncInterval time.Duration
	// MaxSegmentBytes triggers rotation-with-compaction once a segment
	// grows past it (default 8 MiB).
	MaxSegmentBytes int64
	// Logf receives journal lifecycle and error lines.
	Logf func(format string, args ...any)
}

func (c JournalConfig) withDefaults() JournalConfig {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 100 * time.Millisecond
	}
	if c.MaxSegmentBytes <= 0 {
		c.MaxSegmentBytes = 8 << 20
	}
	return c
}

// journalSession is one live (admitted, unfinished) session's raw record
// payloads: re-emitted as the checkpoint when the journal rotates, and
// decoded into the session's image on demand.
type journalSession struct {
	admitRaw []byte
	snapRaw  []byte // latest snapshot payload, nil before the first
}

// Journal is a checksummed, segmented, append-only session journal. Every
// record is framed as u32 length | u32 CRC32-C | payload and write()n
// through to the segment file before the append returns; replay stops a
// segment at the first record whose length or checksum fails (torn tail =
// rollback, mirroring internal/checkpoint's corrupt = miss rule) and never
// fails boot. Rotation compacts: a new segment opens with one checkpoint
// record pair (admit + latest snapshot) per live session, is made durable,
// and the older segments are deleted — so journal size is bounded by live
// sessions, not by history.
//
// Appends are best-effort by design: a journal write error degrades crash
// recoverability and is logged, but never fails the session taking it.
type Journal struct {
	dir string
	cfg JournalConfig

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	seq       uint64
	size      int64
	live      map[string]*journalSession
	snapshots int
	dirty     bool
	closed    bool

	stopSync chan struct{}
	syncDone chan struct{}
}

// OpenJournal opens (creating if needed) the session journal in dir,
// replays every existing segment, and returns the images of the sessions
// that were live at the time of the crash or shutdown, for Recover. The
// replayed state is immediately compacted into a fresh durable segment and
// the old segments are deleted.
func OpenJournal(dir string, cfg JournalConfig) (*Journal, []*Frame, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("ingest: journal: %w", err)
	}
	j := &Journal{
		dir:  dir,
		cfg:  cfg,
		live: map[string]*journalSession{},
	}
	segs, err := j.segments()
	if err != nil {
		return nil, nil, err
	}
	for _, seg := range segs {
		j.replaySegment(seg)
		if n := segSeq(seg); n >= j.seq {
			j.seq = n + 1
		}
	}
	if err := j.rotateLocked(); err != nil {
		return nil, nil, err
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			j.logf("journal: remove %s: %v", seg, err)
		}
	}
	if cfg.SyncMode == JournalSyncInterval {
		j.stopSync = make(chan struct{})
		j.syncDone = make(chan struct{})
		go j.syncLoop()
	}
	return j, j.ExportLive(), nil
}

// Close flushes, fsyncs, and closes the journal. Appends after Close are
// silent no-ops — tests use this to simulate the write stream dying at a
// chosen instant.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	var err error
	if j.w != nil {
		err = j.w.Flush()
	}
	if j.f != nil {
		if serr := j.f.Sync(); err == nil {
			err = serr
		}
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
	}
	stop := j.stopSync
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-j.syncDone
	}
	return err
}

// Admit journals a session's admission identity.
func (j *Journal) Admit(id, tenant, model string, priority int, specs []ChannelSpec) {
	w := &frameWriter{}
	w.u8(recAdmit)
	w.str8(id)
	w.str8(tenant)
	w.str8(model)
	w.n8(priority)
	w.channels(specs)
	j.append(id, w, func() { j.live[id] = &journalSession{admitRaw: w.buf} })
}

// Snapshot journals a session's durable resume point: the per-channel
// committed counts plus an optional monitor-state blob. Oversize state is
// dropped so one runaway capture cannot wedge the journal; the committed
// counts still land, but without state recovery starts the session at
// sample 0.
func (j *Journal) Snapshot(id string, committed []uint64, state []byte) {
	if len(state) > maxJournalState {
		j.logf("journal: session %s: %d-byte state exceeds %d-byte cap; journaling committed counts only",
			id, len(state), maxJournalState)
		state = nil
	}
	w := &frameWriter{}
	w.u8(recSnapshot)
	w.str8(id)
	w.commits(committed)
	w.blob(state)
	j.append(id, w, func() {
		if js, ok := j.live[id]; ok {
			js.snapRaw = w.buf
			j.snapshots++
		}
	})
}

// Detach journals a client disconnect (informational: recovery treats
// every unfinished session as detached).
func (j *Journal) Detach(id string) {
	w := &frameWriter{}
	w.u8(recDetach)
	w.str8(id)
	j.append(id, w, nil)
}

// Finish journals a session's completion, releasing it from compaction.
func (j *Journal) Finish(id string) {
	w := &frameWriter{}
	w.u8(recFinish)
	w.str8(id)
	j.append(id, w, func() { delete(j.live, id) })
}

// ExportLive returns every live (admitted, unfinished) session's image,
// sorted by session id: the Handoff frame that carries its identity and
// durable resume point. It reads under the journal's own mutex — the
// rotation lock — so an exporter racing a rotation sees either the pre- or
// post-compaction live map, never a half-compacted one. The images decode
// the journal's in-memory record copies, never segment files, so no
// segment retirement can invalidate them.
func (j *Journal) ExportLive() []*Frame {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*Frame, 0, len(j.live))
	for _, js := range j.live {
		out = append(out, js.image())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SessionID < out[b].SessionID })
	return out
}

// Snapshots returns how many snapshot records have been accepted since
// open. Tests poll it to know a durable resume point exists.
func (j *Journal) Snapshots() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshots
}

// append frames the record w encoded, writes it through to the segment
// file, applies the live-map update, and handles rotation and the sync
// policy. A record that did not encode is logged and skipped.
func (j *Journal) append(id string, w *frameWriter, apply func()) {
	if w.err != nil {
		j.logf("journal: session %s: record not journaled: %v", id, w.err)
		return
	}
	payload := w.buf
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	if apply != nil {
		apply()
	}
	n := int64(len(payload)) + 8
	if j.size+n > j.cfg.MaxSegmentBytes {
		if err := j.rotateLocked(); err != nil {
			j.logf("journal: rotation failed: %v", err)
		}
	}
	if err := j.writeRecordLocked(payload); err != nil {
		j.logf("journal: append failed: %v", err)
		return
	}
	// Flush the bufio layer unconditionally: once the bytes are in the
	// kernel the record survives a kill -9. fsync (below) is only about
	// power loss.
	if err := j.w.Flush(); err != nil {
		j.logf("journal: flush failed: %v", err)
		return
	}
	metJournalAppends.Inc()
	metJournalBytes.Add(n)
	switch j.cfg.SyncMode {
	case JournalSyncAlways:
		if err := j.f.Sync(); err != nil {
			j.logf("journal: fsync failed: %v", err)
		}
	case JournalSyncInterval:
		j.dirty = true
	}
}

func (j *Journal) writeRecordLocked(payload []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, journalCRC))
	if _, err := j.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := j.w.Write(payload); err != nil {
		return err
	}
	j.size += int64(len(payload)) + 8
	return nil
}

// rotateLocked opens the next segment, writes a compaction checkpoint (the
// admit + latest snapshot payload for every live session), makes it
// durable, and retires the previous segment file. A crash mid-rotation
// leaves both segments on disk; replay applies them in order and the
// checkpoint records are idempotent (latest record wins).
func (j *Journal) rotateLocked() error {
	path := filepath.Join(j.dir, fmt.Sprintf("journal-%08d.wal", j.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(journalMagic); err != nil {
		f.Close()
		return err
	}
	var ver [4]byte
	binary.BigEndian.PutUint32(ver[:], journalVersion)
	if _, err := w.Write(ver[:]); err != nil {
		f.Close()
		return err
	}
	prevF, prevW := j.f, j.w
	j.f, j.w, j.size = f, w, int64(len(journalMagic))+4
	j.seq++
	ids := make([]string, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		js := j.live[id]
		if err := j.writeRecordLocked(js.admitRaw); err != nil {
			return err
		}
		if js.snapRaw != nil {
			if err := j.writeRecordLocked(js.snapRaw); err != nil {
				return err
			}
		}
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	if err := syncDir(j.dir); err != nil {
		j.logf("journal: dir fsync: %v", err)
	}
	if prevF != nil {
		prevW.Flush() //nolint:errcheck // retired segment; best-effort
		old := prevF.Name()
		prevF.Close() //nolint:errcheck // retired segment
		if err := os.Remove(old); err != nil {
			j.logf("journal: remove %s: %v", old, err)
		}
	}
	return nil
}

// syncSegment is the interval flusher's fsync. It is a variable so tests
// can hold one in flight.
var syncSegment = (*os.File).Sync

// syncLoop is the background flusher for JournalSyncInterval. It takes the
// segment and clears dirty under the append lock, then fsyncs outside it,
// so no Admit, Snapshot, Detach or Finish waits out a disk flush; a record
// appended during the fsync sets dirty again and is flushed on the next
// tick. If a rotation or Close closes the segment meanwhile, the fsync
// fails with os.ErrClosed, which loses nothing: rotation has made every
// live session's checkpoint durable in the next segment, and Close fsyncs
// the segment before closing it. That failure is not logged.
func (j *Journal) syncLoop() {
	defer close(j.syncDone)
	t := time.NewTicker(j.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-j.stopSync:
			return
		case <-t.C:
		}
		j.mu.Lock()
		f, due := j.f, !j.closed && j.dirty
		j.dirty = false
		j.mu.Unlock()
		if !due {
			continue
		}
		if err := syncSegment(f); err != nil && !errors.Is(err, os.ErrClosed) {
			j.logf("journal: fsync failed: %v", err)
		}
	}
}

// segments lists existing segment files in replay order.
func (j *Journal) segments() ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(j.dir, "journal-*.wal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

func segSeq(path string) uint64 {
	var n uint64
	fmt.Sscanf(filepath.Base(path), "journal-%d.wal", &n) //nolint:errcheck // 0 on mismatch is fine
	return n
}

// replaySegment applies one segment's records to the live map. The first
// bad header, length, checksum, or decode drops the rest of the segment —
// a torn tail rolls the affected sessions back to their previous durable
// record, it never fails boot.
func (j *Journal) replaySegment(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		j.logf("journal: read %s: %v", path, err)
		return
	}
	hdr := len(journalMagic) + 4
	if len(raw) < hdr || string(raw[:len(journalMagic)]) != journalMagic {
		j.logf("journal: %s: bad segment header; skipping", filepath.Base(path))
		return
	}
	if v := binary.BigEndian.Uint32(raw[len(journalMagic):hdr]); v != journalVersion {
		j.logf("journal: %s: unsupported version %d; skipping", filepath.Base(path), v)
		return
	}
	pos := hdr
	for {
		if pos+8 > len(raw) {
			if pos != len(raw) {
				j.logf("journal: %s: truncated record header at %d; dropping tail", filepath.Base(path), pos)
			}
			return
		}
		n := int(binary.BigEndian.Uint32(raw[pos : pos+4]))
		sum := binary.BigEndian.Uint32(raw[pos+4 : pos+8])
		if n == 0 || n > maxJournalRecord || pos+8+n > len(raw) {
			j.logf("journal: %s: torn record at %d (len %d); dropping tail", filepath.Base(path), pos, n)
			return
		}
		payload := raw[pos+8 : pos+8+n]
		if crc32.Checksum(payload, journalCRC) != sum {
			j.logf("journal: %s: checksum mismatch at %d; dropping tail", filepath.Base(path), pos)
			return
		}
		if err := j.applyReplayed(payload); err != nil {
			j.logf("journal: %s: undecodable record at %d (%v); dropping tail", filepath.Base(path), pos, err)
			return
		}
		pos += 8 + n
	}
}

// applyReplayed decodes one verified record payload into the live map.
func (j *Journal) applyReplayed(payload []byte) error {
	var f Frame
	typ, err := decodeRecord(payload, &f)
	if err != nil {
		return err
	}
	switch typ {
	case recAdmit:
		j.live[f.SessionID] = &journalSession{admitRaw: append([]byte(nil), payload...)}
	case recSnapshot:
		if js, ok := j.live[f.SessionID]; ok {
			js.snapRaw = append([]byte(nil), payload...)
		}
	case recFinish:
		delete(j.live, f.SessionID)
	}
	return nil
}

// decodeRecord decodes one journal record payload: it returns the record
// type and sets the image fields the record carries in f — the session id
// from every record, identity and channels from an admit, commit points and
// state from a snapshot. Replay validation and image recovery both call it,
// so replay accepts exactly the records recovery can decode.
func decodeRecord(payload []byte, f *Frame) (uint8, error) {
	r := &frameReader{buf: payload}
	typ := r.u8()
	f.SessionID = r.str8()
	switch typ {
	case recAdmit:
		f.Tenant = r.str8()
		f.Model = r.str8()
		f.Priority = int(r.u8())
		f.Channels = r.channels("admit")
	case recSnapshot:
		f.Committed = r.commits()
		f.Blob = r.blob()
	case recDetach, recFinish:
	default:
		r.fail("unknown record type %d", typ)
	}
	return typ, r.end()
}

// image decodes the session's image from its raw records. Its commit points
// are sized to the channel list: zero before the first snapshot. The state
// aliases the snapshot payload, which is never modified once stored.
func (js *journalSession) image() *Frame {
	f := &Frame{Type: FrameHandoff}
	decodeRecord(js.admitRaw, f) //nolint:errcheck // validated by replay, or written by Admit from a decoded layout
	if js.snapRaw != nil {
		decodeRecord(js.snapRaw, f) //nolint:errcheck // likewise
	}
	committed := make([]uint64, len(f.Channels))
	copy(committed, f.Committed)
	f.Committed = committed
	return f
}

func (j *Journal) logf(format string, args ...any) {
	if j.cfg.Logf != nil {
		j.cfg.Logf(format, args...)
	}
}

// syncDir fsyncs a directory so a just-created or just-removed segment
// file's directory entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
