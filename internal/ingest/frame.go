// Package ingest is the fault-tolerant streaming layer between the network
// and the core detection engine: a length-prefixed frame protocol carrying
// sequenced side-channel samples, a per-channel resequencer that repairs
// out-of-order delivery and fills gaps, and a TCP server with bounded
// per-session queues, admission control, load shedding, and graceful drain
// (see DESIGN.md §12).
//
// The wire format is deliberately dumb: big-endian, length-prefixed frames
// with a one-byte version and type, so a torn TCP stream fails as a short
// read (retryable by reconnecting) while a corrupted one fails decode with
// ErrMalformed (fatal for the connection, never for the server).
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"nsync/internal/scratch"
)

// Version is the wire protocol version carried in every frame.
const Version = 1

// MaxFramePayload bounds a frame's payload so a corrupted or hostile length
// prefix cannot make the server allocate gigabytes.
const MaxFramePayload = 4 << 20

// ErrMalformed reports a structurally invalid frame: bad version, unknown
// type, truncated payload, or inconsistent lengths. It is a protocol error —
// the connection that produced it cannot be trusted to frame correctly
// anymore — as opposed to an I/O error, which only means the stream tore.
var ErrMalformed = errors.New("ingest: malformed frame")

// FrameType discriminates the frame payloads.
type FrameType uint8

// The frame types. Hello/HelloAck handshake a session (and carry the resume
// point on reconnect), Data carries sequenced samples, EOS declares a
// channel's final extent, Finish requests the final verdict, Verdict and
// Error are the server's terminal replies.
//
// The cluster types carry multi-process fleet traffic on the same listener:
// Redirect steers a session to its owning peer, Handoff/HandoffAck migrate a
// serialized session to its successor during drain, ModelFetch/ModelData
// replicate a content-addressed model blob alongside a handoff that pins it,
// and Ping/Pong are the peer health probe with per-tenant session counts
// piggybacked as quota gossip.
const (
	FrameHello FrameType = iota + 1
	FrameHelloAck
	FrameData
	FrameEOS
	FrameFinish
	FrameVerdict
	FrameError
	FrameRedirect
	FrameHandoff
	FrameHandoffAck
	FrameModelFetch
	FrameModelData
	FramePing
	FramePong
)

// HelloFlagExpectResume marks a reconnecting Hello that expects the server
// to hold retained session state. A cluster peer that does not (the original
// owner died before handing the session off) rejects it with a typed
// no-state error instead of silently opening a fresh session, so the client
// can log the state loss and downgrade deliberately.
const HelloFlagExpectResume = 1 << 0

// PingFlagDraining marks a Ping or Pong from a peer that has latched itself
// out of ownership (HandoffAll is running or has run). Receivers treat the
// sender as dead for ownership purposes — no redirects toward it, sessions
// it owned recompute to survivors — while its process is still reachable to
// finish pushing handoffs. Like Hello's flags it rides a trailing-optional
// byte, written only when nonzero, so pre-cluster peers interoperate.
const PingFlagDraining = 1 << 0

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloAck:
		return "hello-ack"
	case FrameData:
		return "data"
	case FrameEOS:
		return "eos"
	case FrameFinish:
		return "finish"
	case FrameVerdict:
		return "verdict"
	case FrameError:
		return "error"
	case FrameRedirect:
		return "redirect"
	case FrameHandoff:
		return "handoff"
	case FrameHandoffAck:
		return "handoff-ack"
	case FrameModelFetch:
		return "model-fetch"
	case FrameModelData:
		return "model-data"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// TenantUsage is one tenant's live session count, piggybacked on Ping/Pong
// frames as the cluster's quota gossip.
type TenantUsage struct {
	Tenant   string
	Sessions int
}

// ChannelSpec declares one side channel in a Hello: its name (matched
// against the server's trained configuration), lane count (ACC carries 6
// lanes, MAG 3, ...), and sample rate — side channels sample at different
// rates (Table II), so the rate is per channel, not per session. Data frame
// values are sample-major lane-interleaved, so a frame's value count must
// be a multiple of the channel's lane count.
type ChannelSpec struct {
	Name  string
	Lanes int
	Rate  float64
}

// VerdictAlert is one fused alert inside a Verdict.
type VerdictAlert struct {
	// Time is seconds since the print began.
	Time float64
	// Votes, Healthy, Needed mirror core.FusedAlert.
	Votes, Healthy, Needed int
}

// VerdictChannel is one channel's final state inside a Verdict.
type VerdictChannel struct {
	Name        string
	Quarantined bool
	// Health is the health reason string ("ok", "flat", ...).
	Health string
	Voting bool
}

// Verdict is the server's terminal answer for a session.
type Verdict struct {
	// Intrusion reports whether any fused alert fired over the whole stream.
	Intrusion bool
	// Reason says how the session ended: "finished" (client asked), or
	// "drained" (server shut down and flushed what it had).
	Reason string
	// Alerts are the fused alerts in firing order.
	Alerts []VerdictAlert
	// Channels snapshots every channel's final health and vote.
	Channels []VerdictChannel
}

// Frame is the decoded union of every frame type; which fields are
// meaningful depends on Type. Keeping one struct (rather than an interface)
// makes the codec a single fuzzable surface.
type Frame struct {
	Type FrameType

	// Hello fields. Tenant names the fleet tenant the session belongs to
	// (admission quotas are enforced per tenant; empty means the anonymous
	// tenant). Model optionally selects a trained model by content address
	// from a shared pool (empty means the pool's default). Both are trailing
	// optional fields on the wire, so a version-1 Hello without them still
	// decodes.
	SessionID string
	Priority  int
	Channels  []ChannelSpec
	Tenant    string
	Model     string
	// Flags carries HelloFlag* bits, trailing optional on the wire so every
	// earlier Hello layout still decodes (and a zero-flag Hello encodes
	// byte-identically to a pre-cluster one).
	Flags uint8

	// Redirect: Addr is the owning peer's dial address; Peer its index in
	// the static membership (trailing optional, like Hello.Tenant, so future
	// redirect fields stay decodable by this version). Ping/Pong: Peer is
	// the sending peer's index.
	Addr string
	Peer int

	// Handoff: the session image that journal recovery, drain export and
	// peer handoff all carry (DESIGN.md §16, §17). Its identity fields are
	// a Hello's, Committed holds its commit points, and Blob the captured
	// monitor state (nil without one, and then Recover starts the session
	// at sample 0).
	// ModelData: Blob is one chunk of a gob-encoded model; Seq is the chunk
	// byte offset and Last marks the final chunk.
	Blob []byte
	Last bool

	// Ping/Pong: per-tenant live session counts (quota gossip).
	Usage []TenantUsage

	// HelloAck: per-channel committed sample counts (the resume point).
	Committed []uint64

	// Data and EOS fields. Seq is the index of the frame's first sample
	// within its channel's stream; Values is lane-interleaved sample data.
	// For EOS, Seq is the channel's total sample count.
	Channel int
	Seq     uint64
	Values  []float64

	// Verdict field.
	Verdict *Verdict

	// Error field.
	Message string
}

// ---- Field codec ----
//
// The wire frames and the journal records (DESIGN.md §16) share one field
// codec: one encoder and one decoder per field group. A frameWriter and a
// frameReader each keep their first error, so a frame or record writes or
// reads every field and checks once.

type frameWriter struct {
	buf []byte
	err error
}

// fail records the writer's first error.
func (w *frameWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

func (w *frameWriter) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *frameWriter) u64(v uint64)   { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *frameWriter) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *frameWriter) str8(s string)  { w.n8(len(s)); w.buf = append(w.buf, s...) }
func (w *frameWriter) str16(s string) { w.n16(len(s)); w.buf = append(w.buf, s...) }

// n8, n16 and n32 write a non-negative int as an unsigned field of that many
// bits.
func (w *frameWriter) n8(v int)  { w.unsigned(v, 1) }
func (w *frameWriter) n16(v int) { w.unsigned(v, 2) }
func (w *frameWriter) n32(v int) { w.unsigned(v, 4) }

// unsigned writes v big-endian in size bytes. A value that does not fit
// fails the writer instead of being truncated.
func (w *frameWriter) unsigned(v, size int) {
	if v < 0 || uint64(v)>>(8*size) != 0 {
		w.fail("field value %d does not fit a %d-byte field", v, size)
		return
	}
	for i := size - 1; i >= 0; i-- {
		w.buf = append(w.buf, byte(v>>(8*i)))
	}
}

// bit is 1 for true and 0 for false.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// identity writes the session identity a Hello or a Handoff opens with.
func (w *frameWriter) identity(f *Frame) {
	w.str8(f.SessionID)
	w.n8(f.Priority)
	w.channels(f.Channels)
	w.str8(f.Tenant)
	w.str8(f.Model)
}

// channels writes a channel-spec list: Hello, Handoff, journal admit.
func (w *frameWriter) channels(specs []ChannelSpec) {
	w.n8(len(specs))
	for _, ch := range specs {
		if ch.Lanes == 0 {
			w.fail("channel %q with zero lanes", ch.Name)
		}
		w.str8(ch.Name)
		w.n8(ch.Lanes)
		w.f64(ch.Rate)
	}
}

// commits writes a commit-point list: HelloAck, Handoff, journal snapshot.
func (w *frameWriter) commits(committed []uint64) {
	w.n8(len(committed))
	for _, c := range committed {
		w.u64(c)
	}
}

// blob writes a length-prefixed byte string: Handoff, ModelData, journal
// snapshot.
func (w *frameWriter) blob(b []byte) {
	w.n32(len(b))
	w.buf = append(w.buf, b...)
}

// AppendFrame appends the encoded frame (length prefix included) to dst and
// returns the extended slice. It encodes in place: it reserves the prefix,
// writes the fields after it and then fills it in, so a dst with room for
// the frame costs no allocation. A field that does not fit its wire width,
// or a payload over MaxFramePayload, fails the encode with ErrMalformed.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	w := &frameWriter{buf: append(dst, 0, 0, 0, 0)}
	w.u8(Version)
	w.u8(uint8(f.Type))
	switch f.Type {
	case FrameHello:
		w.identity(f)
		if f.Flags != 0 {
			w.u8(f.Flags)
		}
	case FrameHelloAck:
		w.commits(f.Committed)
	case FrameData:
		w.n8(f.Channel)
		w.u64(f.Seq)
		w.n32(len(f.Values))
		for _, v := range f.Values {
			w.f64(v)
		}
	case FrameEOS:
		w.n8(f.Channel)
		w.u64(f.Seq)
	case FrameFinish:
		// no payload beyond the header
	case FrameVerdict:
		v := f.Verdict
		if v == nil {
			w.fail("verdict frame without verdict")
			break
		}
		w.u8(bit(v.Intrusion))
		w.str16(v.Reason)
		w.n16(len(v.Alerts))
		for _, a := range v.Alerts {
			w.f64(a.Time)
			w.n8(a.Votes)
			w.n8(a.Healthy)
			w.n8(a.Needed)
		}
		w.n8(len(v.Channels))
		for _, ch := range v.Channels {
			w.str8(ch.Name)
			w.u8(bit(ch.Quarantined) | bit(ch.Voting)<<1)
			w.str8(ch.Health)
		}
	case FrameError:
		w.str16(f.Message)
	case FrameRedirect:
		w.str16(f.Addr)
		w.n16(f.Peer)
	case FrameHandoff:
		w.identity(f)
		w.commits(f.Committed)
		w.blob(f.Blob)
	case FrameHandoffAck:
		w.str8(f.SessionID)
		w.str16(f.Message)
	case FrameModelFetch:
		w.str8(f.Model)
	case FrameModelData:
		w.str8(f.Model)
		w.u64(f.Seq)
		w.u8(bit(f.Last))
		w.blob(f.Blob)
	case FramePing, FramePong:
		w.n16(f.Peer)
		w.n16(len(f.Usage))
		for _, u := range f.Usage {
			w.str8(u.Tenant)
			w.n32(u.Sessions)
		}
		// Trailing-optional draining flag: written only when set, so the
		// fresh-probe encoding matches peers that predate it.
		if f.Flags != 0 {
			w.u8(f.Flags)
		}
	default:
		w.fail("unknown frame type %d", f.Type)
	}
	n := len(w.buf) - start - 4
	if n > MaxFramePayload {
		w.fail("frame payload %d exceeds %d", n, MaxFramePayload)
	}
	if w.err != nil {
		return nil, w.err
	}
	binary.BigEndian.PutUint32(w.buf[start:], uint32(n))
	return w.buf, nil
}

// WriteFrame encodes f and writes it to w as one length-prefixed frame.
func WriteFrame(w io.Writer, f *Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

type frameReader struct {
	buf []byte
	pos int
	err error
}

// fail records the reader's first error.
func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, or nil once the reader has failed.
func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail("payload truncated")
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// unsigned reads a big-endian unsigned field of size bytes: zero once the
// reader has failed.
func (r *frameReader) unsigned(size int) (v uint64) {
	for _, b := range r.take(size) {
		v = v<<8 | uint64(b)
	}
	return v
}

func (r *frameReader) u8() uint8     { return uint8(r.unsigned(1)) }
func (r *frameReader) u16() uint16   { return uint16(r.unsigned(2)) }
func (r *frameReader) u32() uint32   { return uint32(r.unsigned(4)) }
func (r *frameReader) u64() uint64   { return r.unsigned(8) }
func (r *frameReader) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *frameReader) str8() string  { return string(r.take(int(r.u8()))) }
func (r *frameReader) str16() string { return string(r.take(int(r.u16()))) }

// more reports whether a trailing optional field follows.
func (r *frameReader) more() bool { return r.err == nil && r.pos < len(r.buf) }

// end fails a payload with bytes left over and returns the first error.
func (r *frameReader) end() error {
	if r.pos != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.pos)
	}
	return r.err
}

// identity reads the session identity a Hello or a Handoff opens with. A
// Hello's tenant and model are trailing optional: a pre-fleet Hello ends at
// its channel list and decodes with both empty.
func (r *frameReader) identity(f *Frame) {
	f.SessionID = r.str8()
	f.Priority = int(r.u8())
	f.Channels = r.channels(f.Type.String())
	if f.Type == FrameHandoff || r.more() {
		f.Tenant = r.str8()
	}
	if f.Type == FrameHandoff || r.more() {
		f.Model = r.str8()
	}
}

// channels reads a channel-spec list and validates it as a session layout:
// at least one channel, and every channel with lanes and a finite positive
// rate. what names the frame or record in the empty-layout error.
func (r *frameReader) channels(what string) []ChannelSpec {
	n := int(r.u8())
	if n == 0 {
		r.fail("%s with no channels", what)
	}
	var specs []ChannelSpec
	for i := 0; i < n && r.err == nil; i++ {
		ch := ChannelSpec{Name: r.str8(), Lanes: int(r.u8())}
		if ch.Lanes == 0 {
			r.fail("channel %q with zero lanes", ch.Name)
		}
		if ch.Rate = r.f64(); !(ch.Rate > 0) || math.IsInf(ch.Rate, 0) {
			r.fail("channel %q rate %v", ch.Name, ch.Rate)
		}
		specs = append(specs, ch)
	}
	return specs
}

// commits reads a commit-point list.
func (r *frameReader) commits() []uint64 {
	n := int(r.u8())
	var committed []uint64
	for i := 0; i < n && r.err == nil; i++ {
		committed = append(committed, r.u64())
	}
	return committed
}

// blob reads a length-prefixed byte string; an empty one reads as nil. The
// result aliases the payload.
func (r *frameReader) blob() []byte {
	if b := r.take(int(r.u32())); len(b) > 0 {
		return b
	}
	return nil
}

// readBufs holds ReadFrame's read buffers (*[]byte), one per call in flight.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// ReadFrame reads and decodes one length-prefixed frame. A clean io.EOF at
// the length prefix means the peer closed between frames; a short read
// anywhere else surfaces as io.ErrUnexpectedEOF (a torn stream, worth a
// reconnect); a structural problem surfaces wrapping ErrMalformed (the
// stream cannot be trusted).
//
// The frame is read into a pooled buffer, so the call allocates only the
// decoded frame. The frame copies out everything it keeps, a Blob
// included, and never aliases the buffer.
func ReadFrame(r io.Reader) (*Frame, error) {
	buf := readBufs.Get().(*[]byte)
	f, err := readFrame(r, buf)
	readBufs.Put(buf)
	return f, err
}

// readFrame reads one frame into *buf, growing it as needed, and decodes
// it.
func readFrame(r io.Reader, buf *[]byte) (*Frame, error) {
	*buf = scratch.Resize(*buf, 4)
	if _, err := io.ReadFull(r, *buf); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(*buf)
	if n < 2 {
		return nil, fmt.Errorf("%w: payload length %d too short", ErrMalformed, n)
	}
	if n > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrMalformed, n, MaxFramePayload)
	}
	*buf = scratch.Resize(*buf, int(n))
	if _, err := io.ReadFull(r, *buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	f, err := DecodeFrame(*buf)
	if f != nil && f.Blob != nil {
		f.Blob = append([]byte(nil), f.Blob...)
	}
	return f, err
}

// DecodeFrame decodes one frame payload (the bytes after the length
// prefix). Every structural failure wraps ErrMalformed.
func DecodeFrame(payload []byte) (*Frame, error) {
	r := &frameReader{buf: payload}
	if ver := r.u8(); ver != Version {
		r.fail("version %d, want %d", ver, Version)
	}
	f := &Frame{Type: FrameType(r.u8())}
	switch f.Type {
	case FrameHello:
		r.identity(f)
		if r.more() {
			f.Flags = r.u8()
		}
	case FrameHelloAck:
		f.Committed = r.commits()
	case FrameData, FrameEOS:
		f.Channel = int(r.u8())
		f.Seq = r.u64()
		if f.Type == FrameData {
			b := r.take(8 * int(r.u32()))
			if r.err == nil {
				f.Values = make([]float64, len(b)/8)
				for i := range f.Values {
					f.Values[i] = math.Float64frombits(binary.BigEndian.Uint64(b[i*8:]))
				}
			}
		}
	case FrameFinish:
		// no payload
	case FrameVerdict:
		v := &Verdict{Intrusion: r.u8()&1 != 0, Reason: r.str16()}
		na := int(r.u16())
		for i := 0; i < na && r.err == nil; i++ {
			a := VerdictAlert{Time: r.f64()}
			a.Votes, a.Healthy, a.Needed = int(r.u8()), int(r.u8()), int(r.u8())
			v.Alerts = append(v.Alerts, a)
		}
		nch := int(r.u8())
		for i := 0; i < nch && r.err == nil; i++ {
			ch := VerdictChannel{Name: r.str8()}
			b := r.u8()
			ch.Quarantined, ch.Voting = b&1 != 0, b&2 != 0
			ch.Health = r.str8()
			v.Channels = append(v.Channels, ch)
		}
		f.Verdict = v
	case FrameError:
		f.Message = r.str16()
	case FrameRedirect:
		f.Addr = r.str16()
		// The peer index is trailing optional: a client built against the
		// first redirect layout keeps decoding if later versions append more.
		if r.more() {
			f.Peer = int(r.u16())
		}
	case FrameHandoff:
		r.identity(f)
		f.Committed = r.commits()
		f.Blob = r.blob()
	case FrameHandoffAck:
		f.SessionID = r.str8()
		f.Message = r.str16()
	case FrameModelFetch:
		f.Model = r.str8()
	case FrameModelData:
		f.Model = r.str8()
		f.Seq = r.u64()
		last := r.u8()
		if last > 1 {
			r.fail("model data last flag %d", last)
		}
		f.Last = last == 1
		f.Blob = r.blob()
	case FramePing, FramePong:
		f.Peer = int(r.u16())
		nu := int(r.u16())
		for i := 0; i < nu && r.err == nil; i++ {
			u := TenantUsage{Tenant: r.str8()}
			u.Sessions = int(r.u32())
			f.Usage = append(f.Usage, u)
		}
		if r.more() {
			f.Flags = r.u8()
		}
	default:
		r.fail("unknown frame type %d", f.Type)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return f, nil
}
