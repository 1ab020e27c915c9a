package ingest

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nsync/internal/obs"
)

// Ingest metrics (see DESIGN.md §12). Counters record admission and repair
// events; gauges mirror the server's internal occupancy so an operator can
// watch backpressure building before shedding starts. The server's own
// decisions never read obs state — metrics may be disabled.
var (
	metAccepted  = obs.GetCounter("ingest.accepted")
	metRejected  = obs.GetCounter("ingest.rejected")
	metShed      = obs.GetCounter("ingest.shed")
	metFrames    = obs.GetCounter("ingest.frames")
	metMalformed = obs.GetCounter("ingest.malformed")
	metDups      = obs.GetCounter("ingest.dups")
	metReordered = obs.GetCounter("ingest.reordered")
	metFilled    = obs.GetCounter("ingest.gap_filled")
	metDepth     = obs.GetGauge("ingest.queue_depth")
	metActive    = obs.GetGauge("session.active")
	metCompleted = obs.GetCounter("session.completed")
	metDrained   = obs.GetCounter("session.drained")
	metEvicted   = obs.GetCounter("session.evicted")
	metResumed   = obs.GetCounter("session.resumed")
	metTenantRej = obs.GetCounter("ingest.tenant_rejected")
)

// queued is one unit of session-worker input: a data/EOS frame, a terminal
// command (reason non-empty) asking the worker to flush everything and
// produce the final verdict, or a capture command (capture non-nil) asking
// the worker to reply with the session's serializable resume point.
type queued struct {
	f      *Frame
	reason string
	// capture receives the worker's state capture. Running it on the worker,
	// between frames, is what makes the committed counts and the monitor
	// state describe the same instant — the same guarantee journal snapshots
	// rely on.
	capture chan captured
}

// captured is the worker's reply to a capture command: the per-channel
// committed counts and the monitor state at one consistent instant.
type captured struct {
	committed []uint64
	state     []byte
	err       error
}

// outcome is the worker's single terminal output: the final verdict, or the
// error that killed the session.
type outcome struct {
	v   *Verdict
	err error
}

var (
	errStalled    = errors.New("ingest: session queue stalled")
	errTerminated = errors.New("ingest: session terminated")
)

// session is one print stream's server-side state. Frames flow
// handler → bounded queue → worker → resequencer → sink; the bounded queue
// is the backpressure point (a full queue blocks the handler, which stops
// reading, which fills the TCP window). The handler goroutine owns all
// connection writes; the worker owns the resequencers and the sink.
type session struct {
	id       string
	priority int
	srv      *Server
	sink     Sink
	// origin is the factory the sink must be released to — the server's
	// configured factory normally, the restoring pool for a recovered
	// session.
	origin SinkFactory
	reseq  []*Resequencer
	// specs is the Hello channel layout the session was admitted with; a
	// resume Hello must match it exactly.
	specs    []ChannelSpec
	tenantID string
	tenant   *tenant // quota accounting handle; nil only in unit tests

	// committed mirrors each resequencer's commit point so the handler can
	// build a HelloAck while the worker is mid-push.
	committed []atomic.Uint64

	// frames counts consumed frames; every cfg.SnapshotEveryFrames of them
	// the worker journals a snapshot. Worker-owned, no locking.
	frames int

	queue     chan queued
	outcomeCh chan outcome  // buffered 1; worker sends exactly once
	quit      chan struct{} // closed by terminate
	done      chan struct{} // closed when the worker exits
	termOnce  sync.Once
	termMsg   atomic.Pointer[string]

	mu        sync.Mutex
	conn      net.Conn // attached connection; nil while detached
	retention *time.Timer
	// isDetached tracks the session.detached gauge edge (set on detach,
	// cleared on attach or removal).
	isDetached bool
	// drainOnce guards drainDetached: Shutdown and a handler detaching
	// mid-drain may both hand the session to the drain path.
	drainOnce sync.Once
}

func newSession(srv *Server, hello *Frame, sink Sink, tn *tenant) *session {
	s := &session{
		id:        hello.SessionID,
		priority:  hello.Priority,
		srv:       srv,
		sink:      sink,
		origin:    srv.cfg.Factory,
		specs:     append([]ChannelSpec(nil), hello.Channels...),
		tenantID:  hello.Tenant,
		tenant:    tn,
		reseq:     make([]*Resequencer, len(hello.Channels)),
		committed: make([]atomic.Uint64, len(hello.Channels)),
		queue:     make(chan queued, srv.cfg.QueueDepth),
		outcomeCh: make(chan outcome, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i, ch := range hello.Channels {
		s.reseq[i] = NewResequencer(ch.Lanes, ResequencerConfig{})
	}
	return s
}

// terminate marks the session shed/evicted: the worker discards queued
// frames and exits, and the handler (if any) reports msg to the client.
func (s *session) terminate(msg string) {
	s.termOnce.Do(func() {
		s.termMsg.Store(&msg)
		close(s.quit)
	})
}

func (s *session) terminated() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// enqueue hands one unit to the worker, blocking up to timeout. The block
// is deliberate: it stalls the handler's read loop and lets TCP push back
// on the client. A timeout means the worker cannot keep up even with the
// client throttled — the session is beyond saving.
func (s *session) enqueue(q queued, timeout time.Duration) error {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case s.queue <- q:
		s.srv.depth.Add(1)
		metDepth.Add(1)
		if s.tenant != nil {
			s.tenant.depth.Add(1)
		}
		return nil
	case <-s.quit:
		return errTerminated
	case <-timer:
		return errStalled
	}
}

// run is the session worker: the only goroutine that touches the
// resequencers and the sink. It exits after sending exactly one outcome
// (verdict or error) or after termination, and removal from the server
// happens here so it cannot race a new session reusing the id.
func (s *session) run() {
	defer func() {
		close(s.done)
		s.srv.removeSession(s)
	}()
	for {
		select {
		case <-s.quit:
			s.discardQueue()
			s.outcomeCh <- outcome{err: errTerminated}
			return
		case q := <-s.queue:
			s.srv.depth.Add(-1)
			metDepth.Add(-1)
			if s.tenant != nil {
				s.tenant.depth.Add(-1)
			}
			if q.capture != nil {
				q.capture <- s.captureState()
				continue
			}
			if q.reason != "" {
				v, err := s.finish(q.reason)
				s.outcomeCh <- outcome{v: v, err: err}
				return
			}
			if err := s.consume(q.f); err != nil {
				s.terminate(fmt.Sprintf("session failed: %v", err))
				s.discardQueue()
				s.outcomeCh <- outcome{err: err}
				return
			}
		}
	}
}

// consume feeds one data or EOS frame through the channel's resequencer
// and pushes whatever came out in order into the sink.
func (s *session) consume(f *Frame) error {
	ch := f.Channel
	if ch < 0 || ch >= len(s.reseq) {
		return fmt.Errorf("%w: channel %d of %d", ErrMalformed, ch, len(s.reseq))
	}
	r := s.reseq[ch]
	d0, o0, g0 := r.Stats()
	var released []float64
	switch f.Type {
	case FrameEOS:
		if err := r.SetEOS(f.Seq); err != nil {
			return err
		}
		// The client sends EOS after the channel's last data frame on the
		// same ordered connection, so every frame that could close a gap is
		// already behind us: flush now, filling whatever is still missing.
		released = r.Flush()
	case FrameData:
		var err error
		released, err = r.Offer(f.Seq, f.Values)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unexpected %v frame mid-stream", ErrMalformed, f.Type)
	}
	d1, o1, g1 := r.Stats()
	metDups.Add(int64(d1 - d0))
	metReordered.Add(int64(o1 - o0))
	metFilled.Add(int64(g1 - g0))
	if len(released) > 0 {
		if err := s.sink.Push(ch, released); err != nil {
			return err
		}
	}
	s.committed[ch].Store(r.Committed())
	s.frames++
	if j := s.srv.cfg.Journal; j != nil && s.frames%s.srv.cfg.SnapshotEveryFrames == 0 {
		s.snapshot(j)
	}
	return nil
}

// snapshot journals the session's durable resume point: the per-channel
// committed counts plus, when the sink supports it, the captured monitor
// state. It runs on the worker between frames, so the committed counts and
// the capture describe the same instant. Capture failure degrades the
// snapshot to committed-counts-only; it never fails the session.
func (s *session) snapshot(j *Journal) {
	t := metSnapshotTimer.Start()
	defer metSnapshotTimer.Stop(t)
	var state []byte
	if ss, ok := unwrapSink(s.sink).(StatefulSink); ok {
		var err error
		if state, err = ss.CaptureState(); err != nil {
			s.srv.logf("session %s: state capture failed: %v", s.id, err)
			state = nil
		}
	}
	j.Snapshot(s.id, s.committedSnapshot(), state)
}

// finish flushes every channel's resequencer (filling open and trailing
// gaps) and asks the sink for the final verdict.
func (s *session) finish(reason string) (*Verdict, error) {
	for ch, r := range s.reseq {
		_, _, g0 := r.Stats()
		released := r.Flush()
		_, _, g1 := r.Stats()
		metFilled.Add(int64(g1 - g0))
		if len(released) > 0 {
			if err := s.sink.Push(ch, released); err != nil {
				return nil, err
			}
		}
		s.committed[ch].Store(r.Committed())
	}
	return s.sink.Finish(reason)
}

// discardQueue drops everything still queued, keeping the aggregate depth
// accounting straight.
func (s *session) discardQueue() {
	for {
		select {
		case <-s.queue:
			s.srv.depth.Add(-1)
			metDepth.Add(-1)
			if s.tenant != nil {
				s.tenant.depth.Add(-1)
			}
		default:
			return
		}
	}
}

// captureState is the worker-side half of a handoff export: the same
// capture a journal snapshot takes, but returned to the exporter instead of
// appended to the journal.
func (s *session) captureState() captured {
	var state []byte
	if ss, ok := unwrapSink(s.sink).(StatefulSink); ok {
		var err error
		if state, err = ss.CaptureState(); err != nil {
			return captured{err: err}
		}
	}
	return captured{committed: s.committedSnapshot(), state: state}
}

// exportState asks the session worker for a consistent resume point,
// waiting at most timeout for the worker to reach the command in its queue.
// It fails — rather than blocking a whole drain — if the session terminates
// or finishes first.
func (s *session) exportState(timeout time.Duration) (captured, error) {
	reply := make(chan captured, 1)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case s.queue <- queued{capture: reply}:
		// Mirror enqueue's depth accounting; the worker (or discardQueue)
		// decrements it.
		s.srv.depth.Add(1)
		metDepth.Add(1)
		if s.tenant != nil {
			s.tenant.depth.Add(1)
		}
	case <-s.quit:
		return captured{}, errTerminated
	case <-s.done:
		return captured{}, errTerminated
	case <-t.C:
		return captured{}, errStalled
	}
	select {
	case cap := <-reply:
		if cap.err != nil {
			return captured{}, cap.err
		}
		return cap, nil
	case <-s.done:
		// terminate() won the race and discardQueue dropped the command.
		return captured{}, errTerminated
	case <-t.C:
		return captured{}, errStalled
	}
}

// modelVersion reports the content address of the model behind the
// session's sink, when the sink knows it (pool-backed sinks do).
func (s *session) modelVersion() string {
	if mv, ok := unwrapSink(s.sink).(interface{ ModelVersion() string }); ok {
		return mv.ModelVersion()
	}
	return ""
}

// committedSnapshot builds the per-channel resume points for a HelloAck.
func (s *session) committedSnapshot() []uint64 {
	out := make([]uint64, len(s.committed))
	for i := range s.committed {
		out[i] = s.committed[i].Load()
	}
	return out
}

// attach binds a connection to the session, cancelling any retention
// countdown. It fails if another connection is already attached.
func (s *session) attach(conn net.Conn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		return fmt.Errorf("ingest: session %q already attached", s.id)
	}
	if s.retention != nil {
		s.retention.Stop()
		s.retention = nil
	}
	if s.isDetached {
		s.isDetached = false
		metDetached.Add(-1)
	}
	s.conn = conn
	return nil
}

// detach releases the connection and starts the retention countdown: the
// client has this long to reconnect and resume before the session is
// evicted.
func (s *session) detach(retention time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn = nil
	if s.terminated() {
		return
	}
	if !s.isDetached {
		s.isDetached = true
		metDetached.Add(1)
		if j := s.srv.cfg.Journal; j != nil {
			j.Detach(s.id)
		}
	}
	// A drain that found the session attached left it to its handler, which
	// is leaving now: flush it here, or Shutdown would wait out retention.
	// Checking under s.mu orders this against Shutdown's look at s.conn.
	if s.srv.isDraining() {
		s.drainDetached()
		return
	}
	s.retention = time.AfterFunc(retention, func() {
		s.terminate("session retention expired")
		metEvicted.Inc()
	})
}

// drainDetached flushes a session no handler owns during a drain and counts
// it drained once the worker has produced its final verdict. Only the
// first call acts.
func (s *session) drainDetached() {
	s.drainOnce.Do(func() {
		go func() {
			if err := s.enqueue(queued{reason: "drained"}, 0); err == nil {
				<-s.outcomeCh
				metDrained.Inc()
			}
		}()
	})
}

// wake interrupts the attached handler's blocking read (if any) so it
// notices a drain or termination promptly.
func (s *session) wake() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		s.conn.SetReadDeadline(time.Now()) //nolint:errcheck // best-effort wake
	}
}

func (s *session) terminationMessage() string {
	if m := s.termMsg.Load(); m != nil {
		return *m
	}
	return "session terminated"
}
