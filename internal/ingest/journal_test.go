package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func testSpecs() []ChannelSpec {
	return []ChannelSpec{{Name: "ACC", Lanes: 2, Rate: 100}, {Name: "MAG", Lanes: 1, Rate: 100}}
}

func openTestJournal(t *testing.T, dir string, cfg JournalConfig) (*Journal, []*Frame) {
	t.Helper()
	cfg.Logf = t.Logf
	j, rec, err := OpenJournal(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

// newestSegment returns the path of the newest segment file without
// opening it, so it is safe while rotation may retire that segment.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1]
}

// tailSegment returns the path and contents of the newest segment file.
// Only a caller whose journal cannot rotate meanwhile may use it.
func tailSegment(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	path := newestSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openTestJournal(t, dir, JournalConfig{})
	if len(rec) != 0 {
		t.Fatalf("fresh journal recovered %d sessions", len(rec))
	}
	j.Admit("print-1", "acme", "abc123def456", 3, testSpecs())
	j.Admit("print-2", "", "", 0, testSpecs()[:1])
	j.Snapshot("print-1", []uint64{100, 50}, []byte("state-v1"))
	j.Snapshot("print-1", []uint64{400, 200}, []byte("state-v2-longer"))
	j.Detach("print-1")
	j.Admit("print-3", "acme", "", 1, testSpecs())
	j.Finish("print-3")
	if got := j.Snapshots(); got != 2 {
		t.Fatalf("Snapshots() = %d, want 2", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec := openTestJournal(t, dir, JournalConfig{})
	defer j2.Close()
	want := []*Frame{
		{
			Type: FrameHandoff, SessionID: "print-1", Tenant: "acme", Model: "abc123def456", Priority: 3,
			Channels: testSpecs(), Committed: []uint64{400, 200}, Blob: []byte("state-v2-longer"),
		},
		{
			Type: FrameHandoff, SessionID: "print-2", Channels: testSpecs()[:1], Committed: []uint64{0},
		},
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("recovered:\n%+v\nwant:\n%+v", rec, want)
	}
}

// TestJournalTornTail cuts and corrupts the tail segment at assorted
// points: recovery must drop the damaged tail, keep every record before
// it, and never fail.
func TestJournalTornTail(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		j, _ := openTestJournal(t, dir, JournalConfig{SyncMode: JournalSyncNone})
		j.Admit("print-1", "acme", "", 0, testSpecs())
		j.Snapshot("print-1", []uint64{100, 50}, []byte("early"))
		j.Snapshot("print-1", []uint64{900, 450}, []byte("late"))
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("truncate mid-record", func(t *testing.T) {
		dir := build(t)
		path, raw := tailSegment(t, dir)
		// Cut inside the final snapshot record's payload.
		if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec := openTestJournal(t, dir, JournalConfig{})
		defer j.Close()
		if len(rec) != 1 || !reflect.DeepEqual(rec[0].Committed, []uint64{100, 50}) || string(rec[0].Blob) != "early" {
			t.Fatalf("want rollback to the early snapshot, got %+v", rec)
		}
	})

	t.Run("bit flip in tail record", func(t *testing.T) {
		dir := build(t)
		path, raw := tailSegment(t, dir)
		raw[len(raw)-3] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec := openTestJournal(t, dir, JournalConfig{})
		defer j.Close()
		if len(rec) != 1 || string(rec[0].Blob) != "early" {
			t.Fatalf("want rollback to the early snapshot, got %+v", rec)
		}
	})

	t.Run("bit flip mid-segment drops the suffix", func(t *testing.T) {
		dir := build(t)
		path, raw := tailSegment(t, dir)
		// Corrupt inside the FIRST snapshot record's payload (locate its
		// "early" state blob): the admit before it survives, both snapshots
		// after the damage are dropped.
		off := bytes.Index(raw, []byte("early"))
		if off < 0 {
			t.Fatal("fixture: early snapshot not found in segment")
		}
		raw[off] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec := openTestJournal(t, dir, JournalConfig{})
		defer j.Close()
		if len(rec) != 1 {
			t.Fatalf("recovered %d sessions, want 1", len(rec))
		}
		if rec[0].Blob != nil || !reflect.DeepEqual(rec[0].Committed, []uint64{0, 0}) {
			t.Fatalf("want a fresh (snapshot-less) recovery, got %+v", rec[0])
		}
	})

	t.Run("garbage segment never fails boot", func(t *testing.T) {
		dir := build(t)
		path, _ := tailSegment(t, dir)
		if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec := openTestJournal(t, dir, JournalConfig{})
		defer j.Close()
		if len(rec) != 0 {
			t.Fatalf("recovered %d sessions from garbage", len(rec))
		}
	})
}

// TestJournalRotationCompacts drives the journal past its segment cap and
// checks that rotation carries live sessions forward, drops finished ones,
// and deletes retired segment files.
func TestJournalRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, JournalConfig{MaxSegmentBytes: 2048, SyncMode: JournalSyncNone})
	j.Admit("keeper", "acme", "", 2, testSpecs())
	j.Admit("goner", "", "", 0, testSpecs()[:1])
	j.Finish("goner")
	big := make([]byte, 512)
	for i := 0; i < 20; i++ {
		j.Snapshot("keeper", []uint64{uint64(i), uint64(i)}, big)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segments on disk after rotation, want 1 (compaction must delete retired segments)", len(segs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openTestJournal(t, dir, JournalConfig{})
	defer j2.Close()
	if len(rec) != 1 || rec[0].SessionID != "keeper" {
		t.Fatalf("recovered %+v, want only keeper", rec)
	}
	if !reflect.DeepEqual(rec[0].Committed, []uint64{19, 19}) {
		t.Fatalf("keeper committed %v, want latest snapshot", rec[0].Committed)
	}
}

// TestJournalSyncModes smoke-tests each fsync policy end to end.
func TestJournalSyncModes(t *testing.T) {
	for _, mode := range []JournalSyncMode{JournalSyncInterval, JournalSyncAlways, JournalSyncNone} {
		dir := t.TempDir()
		j, _ := openTestJournal(t, dir, JournalConfig{SyncMode: mode, SyncInterval: 5 * time.Millisecond})
		j.Admit("s", "", "", 0, testSpecs())
		j.Snapshot("s", []uint64{7, 7}, nil)
		if mode == JournalSyncInterval {
			time.Sleep(20 * time.Millisecond) // let the flusher tick
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, rec := openTestJournal(t, dir, JournalConfig{})
		if len(rec) != 1 || !reflect.DeepEqual(rec[0].Committed, []uint64{7, 7}) {
			t.Fatalf("mode %v: recovered %+v", mode, rec)
		}
		j2.Close()
	}
}

// TestJournalAppendAfterCloseIsNoop pins the crash-simulation contract the
// in-process recovery tests rely on.
func TestJournalAppendAfterCloseIsNoop(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, JournalConfig{})
	j.Admit("s", "", "", 0, testSpecs())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j.Finish("s") // must not panic, must not reach disk
	j2, rec := openTestJournal(t, dir, JournalConfig{})
	defer j2.Close()
	if len(rec) != 1 {
		t.Fatalf("post-close Finish reached disk: recovered %d sessions", len(rec))
	}
	if _, err := ParseJournalSyncMode("bogus"); err == nil {
		t.Error("ParseJournalSyncMode(bogus): want error")
	}
}

// TestJournalExportLiveDuringRotation races a handoff exporter against
// rotation-with-compaction: ExportLive reads under the rotation lock, so
// every export must be internally consistent — complete identity, committed
// counts sized to the channel list — even while segments are being rotated
// out underneath it. Run under -race this also pins the locking discipline.
func TestJournalExportLiveDuringRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: the snapshot payloads below force a rotation every few
	// records, so the exports race real compactions, not an idle file.
	j, _ := openTestJournal(t, dir, JournalConfig{MaxSegmentBytes: 4 << 10})
	defer j.Close() //nolint:errcheck // test teardown

	firstSeg := newestSegment(t, dir)
	specs := testSpecs()
	stop := make(chan struct{})
	done := make(chan struct{})
	defer func() { // on a failure too, so the churn never outlives the test
		close(stop)
		<-done
	}()
	go func() {
		defer close(done)
		state := make([]byte, 512)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := "churn-" + string(rune('a'+i%16)) + "-" + string(rune('a'+(i/16)%16))
			j.Admit(id, "plant-x", "feedfacefeed", 3, specs)
			j.Snapshot(id, []uint64{uint64(i), uint64(i)}, state)
			if i%4 != 0 { // keep a rolling subset live so exports see both kinds
				j.Finish(id)
			}
		}
	}()
	// Export until the churn has driven at least a few rotations (tail
	// segment name advanced), with a floor of 300 rounds so the two sides
	// genuinely interleave.
	deadline := time.Now().Add(10 * time.Second)
	rotated := false
	for k := 0; k < 300 || !rotated; k++ {
		if time.Now().After(deadline) {
			t.Fatal("journal never rotated during the churn; raise the churn or shrink MaxSegmentBytes")
		}
		for _, rs := range j.ExportLive() {
			if rs.SessionID == "" || rs.Tenant != "plant-x" || rs.Model != "feedfacefeed" {
				t.Fatalf("torn export identity: %+v", rs)
			}
			if !reflect.DeepEqual(rs.Channels, specs) {
				t.Fatalf("torn export channels: %+v", rs.Channels)
			}
			if len(rs.Committed) != len(specs) {
				t.Fatalf("export committed %v not sized to %d channels", rs.Committed, len(specs))
			}
		}
		if !rotated {
			if newestSegment(t, dir) != firstSeg {
				rotated = true
			}
		}
	}
}

// TestJournalIntervalSyncOffAppendLock holds an interval fsync in flight
// and checks that appends and exports complete meanwhile: the flusher takes
// the segment under the append lock but fsyncs outside it. The appends
// rotate the held segment away, so the fsync then fails with os.ErrClosed,
// which must not be logged as a failure.
func TestJournalIntervalSyncOffAppendLock(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	unhold := sync.OnceFunc(func() { close(release) })
	held := make(chan error, 1)
	var first sync.Once
	fsync := syncSegment
	syncSegment = func(f *os.File) error {
		hold := false
		first.Do(func() {
			hold = true
			close(entered)
			<-release
		})
		err := fsync(f)
		if hold {
			held <- err
		}
		return err
	}
	defer func() { syncSegment = fsync }()

	var mu sync.Mutex
	var logs []string
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, JournalConfig{
		SyncMode:        JournalSyncInterval,
		SyncInterval:    time.Millisecond,
		MaxSegmentBytes: 4 << 10,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close() //nolint:errcheck // closed below; a second Close is a no-op
	defer unhold()  // on a failure, before Close: a held fsync would hold Close up

	j.Admit("held", "plant-x", "feedfacefeed", 3, testSpecs())
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no interval fsync started")
	}
	firstSeg := newestSegment(t, dir)
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		state := make([]byte, 512)
		for i := 0; i < 32; i++ { // 16 KB of snapshots: several rotations
			j.Snapshot("held", []uint64{uint64(i), uint64(i)}, state)
		}
		j.Detach("held")
		j.ExportLive()
		j.Finish("held")
	}()
	select {
	case <-appended:
	case <-time.After(10 * time.Second):
		t.Fatal("appends waited behind the in-flight interval fsync")
	}
	if newestSegment(t, dir) == firstSeg {
		t.Fatal("the appends never rotated the segment under the held fsync")
	}
	unhold()
	if err := <-held; !errors.Is(err, os.ErrClosed) {
		t.Fatalf("held fsync of a rotated-away segment returned %v, want os.ErrClosed", err)
	}
	if err := j.Close(); err != nil { // waits for the flusher to exit
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, "fsync") {
			t.Errorf("logged %q", line)
		}
	}
}

// FuzzJournalReplay boots a journal from a segment of fuzzed records. The
// input is a sequence of records, each a u16 length and that many payload
// bytes (a short last record takes what is left); each is framed with a
// valid length and checksum, so replay must decode every payload rather
// than stop at the framing. Boot must never panic or fail, and every image
// it recovers must encode as a Handoff frame that decodes back to itself.
func FuzzJournalReplay(f *testing.F) {
	for _, name := range []string{"journal.wal", "checkpoint.wal"} {
		seg, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			f.Fatal(err)
		}
		var input []byte
		for pos := len(journalMagic) + 4; pos+8 <= len(seg); {
			n := int(binary.BigEndian.Uint32(seg[pos:]))
			input = binary.BigEndian.AppendUint16(input, uint16(n))
			input = append(input, seg[pos+8:pos+8+n]...)
			pos += 8 + n
		}
		f.Add(input)
	}
	f.Fuzz(func(t *testing.T, records []byte) {
		seg := binary.BigEndian.AppendUint32([]byte(journalMagic), journalVersion)
		for len(records) >= 2 {
			n := min(int(binary.BigEndian.Uint16(records)), len(records)-2)
			payload := records[2 : 2+n]
			records = records[2+n:]
			seg = binary.BigEndian.AppendUint32(seg, uint32(len(payload)))
			seg = binary.BigEndian.AppendUint32(seg, crc32.Checksum(payload, journalCRC))
			seg = append(seg, payload...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal-00000000.wal"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		j, images, err := OpenJournal(dir, JournalConfig{SyncMode: JournalSyncNone})
		if err != nil {
			t.Fatalf("boot failed: %v", err)
		}
		defer j.Close() //nolint:errcheck // test teardown
		for _, img := range images {
			buf, err := AppendFrame(nil, img)
			if err != nil {
				t.Fatalf("image does not encode: %v\nimage: %+v", err, img)
			}
			got, err := ReadFrame(bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("image does not decode: %v\nimage: %+v", err, img)
			}
			if !reflect.DeepEqual(got, img) {
				t.Fatalf("image round trip:\n got %+v\nwant %+v", got, img)
			}
		}
	})
}
