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
	metFailed    = obs.GetCounter("session.failed")
	metResumed   = obs.GetCounter("session.resumed")
	// metFinish times a session's verdict path: the resequencers' flush
	// and Sink.Finish.
	metFinish    = obs.GetTimer("session.finish")
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
	capture chan captureReply
}

// captureReply is the worker's reply to a capture command: the per-channel
// committed counts and the monitor state at one consistent instant.
type captureReply struct {
	committed []uint64
	state     []byte
	err       error
}

var (
	errStalled    = errors.New("ingest: session queue stalled")
	errTerminated = errors.New("ingest: session terminated")
)

// migratedMsg is the retryable rejection a migrated session's client gets:
// it redials, and ownership or a redirect steers it to the successor.
const migratedMsg = "session migrated; reconnect"

// phase is a session's lifecycle state (DESIGN.md §12). A session moves
// among the live phases and reaches exactly one terminal phase, which alone
// decides what its client sees.
type phase uint8

const (
	attached   phase = iota // a handler owns the session; conn is nil until it binds
	detached                // no handler; the retention timer runs
	captured                // a drain exported the session; its handoff push is unresolved
	finishing               // the client's Finish is queued
	draining                // a server drain is queued
	finished                // terminal: the Finish verdict
	drained                 // terminal: the drain verdict
	migrated                // terminal: the successor acked the handoff
	terminated              // terminal: shed, evicted, expired or failed, as reason says
)

func (p phase) ended() bool { return p >= finished }

// eventKind names a lifecycle event. apply, called through step, is the
// only code that acts on one.
type eventKind uint8

const (
	evAttach  eventKind = iota // a Hello's connection binds (event.conn)
	evDetach                   // the handler lost its connection
	evFinish                   // the client sent Finish
	evDrain                    // Server.Shutdown
	evCapture                  // a drain exports the session for handoff
	evAck                      // the successor acked the handoff
	evRefuse                   // the handoff push was refused or failed
	evExpire                   // the retention timer fired
	evShed                     // overload shedding picked the session (event.reason)
	evEvict                    // read timeout or stalled queue (event.reason)
	evFail                     // the worker failed (event.reason)
	evVerdict                  // the worker produced the final verdict (event.verdict)
)

type event struct {
	kind    eventKind
	conn    net.Conn
	reason  string
	verdict *Verdict
}

// session is one print stream's server-side state. Frames flow
// handler → bounded queue → worker → resequencer → sink; the bounded queue
// is the backpressure point (a full queue blocks the handler, which stops
// reading, which fills the TCP window). The handler goroutine owns all
// connection writes; the worker owns the resequencers and the sink. The
// lifecycle fields below s.mu change only in step.
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

	queue chan queued
	quit  chan struct{} // closed when the session reaches a terminal phase

	mu        sync.Mutex
	changed   sync.Cond // on mu; broadcast on every phase change
	phase     phase
	conn      net.Conn    // the handler's connection, woken by an ending
	retention *time.Timer // armed while detached
	reason    string      // terminated: the client-visible message
	verdict   *Verdict    // finished, drained: the final verdict
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
		quit:      make(chan struct{}),
	}
	s.changed.L = &s.mu
	for i, ch := range hello.Channels {
		s.reseq[i] = NewResequencer(ch.Lanes, ResequencerConfig{})
	}
	return s
}

// step applies one lifecycle event under s.mu and returns the phase it
// leaves the session in and whether the event took effect (for an attach:
// whether the connection bound). A Finish, drain, eviction or worker
// failure that finds the session captured first waits for the handoff to
// resolve: a captured session cannot also end here.
func (s *session) step(ev event) (phase, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.kind {
	case evFinish, evDrain, evEvict, evFail:
		for s.phase == captured {
			s.changed.Wait()
		}
	}
	return s.apply(ev)
}

// transitions[p][e] is the phase event e moves a session in phase p to; an
// event with no entry leaves it be. Two rules sit outside the table, in
// apply: an attach binds only a session with no connection bound, and a
// refused handoff whose handler still holds its connection is attached.
var transitions = [...]map[eventKind]phase{
	attached: {
		evDetach: detached, evFinish: finishing, evDrain: draining, evCapture: captured,
		evShed: terminated, evEvict: terminated, evFail: terminated,
	},
	detached: {
		evAttach: attached, evDrain: draining, evCapture: captured,
		evExpire: terminated, evShed: terminated, evFail: terminated,
	},
	captured:   {evAck: migrated, evRefuse: detached},
	finishing:  {evShed: terminated, evFail: terminated, evVerdict: finished},
	draining:   {evShed: terminated, evFail: terminated, evVerdict: drained},
	terminated: nil, // sizes the table: terminal phases take no events
}

// apply is the session's transition function; the caller holds s.mu. It is
// the only code that assigns s.phase, and it carries every side effect of a
// phase change: the retention timer, the session.detached gauge, the
// journal Detach record, queueing the worker's Finish or drain command, the
// one counter per ending, closing quit, and waking the handler of a session
// that stops reading.
func (s *session) apply(ev event) (phase, bool) {
	from := s.phase
	switch ev.kind {
	case evAttach:
		if s.conn != nil || from != attached && from != detached && from != captured {
			return from, false
		}
		s.conn = ev.conn
	case evDetach:
		s.conn = nil
	}
	to, ok := transitions[from][ev.kind]
	if !ok {
		return from, ev.kind == evAttach
	}
	if to == detached && s.conn != nil {
		to = attached
	}
	// reason is read only in terminated, verdict only in finished and
	// drained, and only the events that lead there carry them.
	s.phase, s.reason, s.verdict = to, ev.reason, ev.verdict
	s.changed.Broadcast()
	if from == detached {
		s.retention.Stop()
		s.retention = nil
		metDetached.Add(-1)
	}
	switch to {
	case detached:
		metDetached.Add(1)
		if j := s.srv.cfg.Journal; j != nil {
			j.Detach(s.id)
		}
		s.retention = time.AfterFunc(s.srv.cfg.Retention, func() {
			s.step(event{kind: evExpire, reason: "session retention expired"})
		})
	case finishing:
		// The command goes in behind every frame the handler has queued
		// (the worker discards a frame queued after it), from a goroutine
		// because the queue may be full and s.mu is held.
		go s.enqueue(queued{reason: "finished"}, 0) //nolint:errcheck // an ending that beats it is the ending
	case draining:
		go s.enqueue(queued{reason: "drained"}, 0) //nolint:errcheck // an ending that beats it is the ending
	case finished:
		metCompleted.Inc()
	case drained:
		metDrained.Inc()
	case migrated:
		metHandoffOut.Inc()
	case terminated:
		switch ev.kind {
		case evShed:
			metShed.Inc()
		case evFail:
			metFailed.Inc()
		default:
			metEvicted.Inc()
		}
	}
	if to.ended() {
		close(s.quit)
	}
	if s.conn != nil && to != attached && to != captured {
		s.conn.SetReadDeadline(time.Now()) //nolint:errcheck // best-effort wake
	}
	return to, true
}

// current reports the session's phase.
func (s *session) current() phase {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phase
}

// ending returns the frame that tells a client how the session ended: the
// verdict for finished and drained, a typed rejection for migrated and
// terminated. With wait it blocks until the session ends; without, it
// returns nil for a live session.
func (s *session) ending(wait bool) *Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	for wait && !s.phase.ended() {
		s.changed.Wait()
	}
	switch s.phase {
	case finished, drained:
		return &Frame{Type: FrameVerdict, Verdict: s.verdict}
	case migrated:
		return &Frame{Type: FrameError, Message: migratedMsg}
	case terminated:
		return &Frame{Type: FrameError, Message: s.reason}
	}
	return nil
}

// enqueue hands one unit to the worker, blocking up to timeout (0: no
// limit) once the queue is full; only then does it arm a timer. The block
// is deliberate: it stalls the handler's read loop and lets TCP push back
// on the client. A timeout means the worker cannot keep up even with the
// client throttled — the session is beyond saving.
//
// A session that has ended takes nothing: its worker discards the queue
// once on exit, so a unit sent after that is taken back out here, or it
// would hold the queue-depth counts up forever.
func (s *session) enqueue(q queued, timeout time.Duration) error {
	select {
	case <-s.quit:
		return errTerminated
	default:
	}
	select {
	case s.queue <- q:
	default:
		var timer <-chan time.Time
		if timeout > 0 {
			t := time.NewTimer(timeout)
			defer t.Stop()
			timer = t.C
		}
		select {
		case s.queue <- q:
		case <-s.quit:
			return errTerminated
		case <-timer:
			return errStalled
		}
	}
	s.srv.depth.Add(1)
	metDepth.Add(1)
	if s.tenant != nil {
		s.tenant.depth.Add(1)
	}
	// The session may have ended since the first look, and its worker
	// discarded the queue before this unit landed in it.
	select {
	case <-s.quit:
		s.discardQueue()
		return errTerminated
	default:
		return nil
	}
}

// run is the session worker: the only goroutine that touches the
// resequencers and the sink. It exits once the session has ended — by its
// own verdict or failure, or by an ending that closed quit — discarding
// whatever is still queued, and removal from the server happens here so it
// cannot race a new session reusing the id. Every cfg.SnapshotEveryFrames
// consumed frames it journals a snapshot.
func (s *session) run() {
	defer s.srv.removeSession(s)
	defer s.discardQueue()
	frames := 0
	for {
		select {
		case <-s.quit:
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
				t := metFinish.Start()
				v, err := s.finish(q.reason)
				metFinish.Stop(t)
				if err != nil {
					s.step(event{kind: evFail, reason: fmt.Sprintf("session failed: %v", err)})
				} else {
					s.step(event{kind: evVerdict, verdict: v})
				}
				return
			}
			if err := s.consume(q.f); err != nil {
				s.step(event{kind: evFail, reason: fmt.Sprintf("session failed: %v", err)})
				return
			}
			frames++
			if j := s.srv.cfg.Journal; j != nil && frames%s.srv.cfg.SnapshotEveryFrames == 0 {
				s.snapshot(j)
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
	r := s.captureState()
	if r.err != nil {
		s.srv.logf("session %s: state capture failed: %v", s.id, r.err)
	}
	j.Snapshot(s.id, r.committed, r.state)
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
// accounting straight. The exiting worker and an enqueue that finds the
// session ended both call it.
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

// captureState takes the session's resume point on the worker: the
// committed counts and, when the sink supports it, the monitor state. A
// journal snapshot appends it; a handoff export returns it to the exporter.
func (s *session) captureState() (r captureReply) {
	r.committed = s.committedSnapshot()
	if ss, ok := unwrapSink(s.sink).(StatefulSink); ok {
		if r.state, r.err = ss.CaptureState(); r.err != nil {
			r.state = nil
		}
	}
	return r
}

// exportState asks the worker of a captured session for a consistent
// resume point, waiting at most timeout for it to reach the command in its
// queue. A captured session cannot end, so only a busy worker times out.
func (s *session) exportState(timeout time.Duration) (captureReply, error) {
	deadline := time.Now().Add(timeout)
	reply := make(chan captureReply, 1)
	if err := s.enqueue(queued{capture: reply}, timeout); err != nil {
		return captureReply{}, err
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case r := <-reply:
		return r, r.err
	case <-t.C:
		return captureReply{}, errStalled
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
