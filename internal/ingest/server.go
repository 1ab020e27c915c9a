package ingest

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Server. The zero value of every field selects a default.
type Config struct {
	// Factory supplies a sink per admitted session. Required.
	Factory SinkFactory
	// QueueDepth is the per-session frame queue capacity (default 64). A
	// full queue blocks the session's reader — backpressure, not loss.
	QueueDepth int
	// ShedWatermark is the aggregate queued-frame count across all
	// sessions above which new sessions are rejected and the
	// lowest-priority active session is shed (default 256).
	ShedWatermark int
	// ReadTimeout is the per-frame read deadline (default 30s). A client
	// silent for this long is evicted as stalled. It also bounds every
	// outbound frame — HelloAck, Verdict, Error — so a client that stops
	// reading cannot pin a handler on its terminal write.
	ReadTimeout time.Duration
	// EnqueueTimeout is how long a handler may block on a full session
	// queue before the session is evicted as unserviceable (default 10s).
	EnqueueTimeout time.Duration
	// Retention is how long a detached session (connection lost before
	// Finish) waits for the client to reconnect and resume (default 60s).
	Retention time.Duration
	// Tenants, when set, is the tenant accounting table to enforce quotas
	// against (and, with Cluster, to gossip to peers). Leave nil for an
	// unlimited table.
	Tenants *TenantTable
	// Journal, when set, records session lifecycle and periodic resume
	// points so a restarted server can recover detached sessions
	// (DESIGN.md §16).
	Journal *Journal
	// SnapshotEveryFrames is how many consumed frames pass between journal
	// snapshots of a session's committed counts and monitor state
	// (default 256). Ignored without Journal.
	SnapshotEveryFrames int
	// Cluster, when set, makes this process one peer of a multi-process
	// fleet (DESIGN.md §17): inbound peer frames are served, Hellos for
	// sessions another peer owns are answered with a Redirect, and resume
	// Hellos flagged ExpectResume are rejected with a typed no-state error
	// when nothing is retained here.
	Cluster *Cluster
	// Logf, when set, receives one line per session lifecycle event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ShedWatermark <= 0 {
		c.ShedWatermark = 256
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = 10 * time.Second
	}
	if c.Retention <= 0 {
		c.Retention = 60 * time.Second
	}
	if c.SnapshotEveryFrames <= 0 {
		c.SnapshotEveryFrames = 256
	}
	return c
}

// Server accepts framed side-channel streams over TCP and feeds them, one
// bounded queue and one worker per session, into sinks built by the
// configured factory. It survives client disconnects (sessions are retained
// for resume), slow clients (per-frame read deadlines), stalled pipelines
// (enqueue timeouts), and overload (admission control plus lowest-priority
// shedding), and drains gracefully on Shutdown: accepting stops, every
// in-flight session is flushed, and final verdicts go out before Serve
// returns.
type Server struct {
	cfg     Config
	tenants *TenantTable
	depth   atomic.Int64 // aggregate queued frames, the shed signal

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	sessions  map[string]*session
	draining  bool

	wg sync.WaitGroup // one count per live session
}

// NewServer builds a server; cfg.Factory is required.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Factory == nil {
		return nil, errors.New("ingest: Config.Factory is required")
	}
	cfg = cfg.withDefaults()
	tenants := cfg.Tenants
	if tenants == nil {
		tenants = NewTenantTable(TenantQuota{})
	}
	return &Server{
		cfg:       cfg,
		tenants:   tenants,
		listeners: map[net.Listener]struct{}{},
		sessions:  map[string]*session{},
	}, nil
}

// Serve accepts connections on l until Shutdown closes it. It returns nil
// after a graceful shutdown, or the accept error otherwise.
func (srv *Server) Serve(l net.Listener) error {
	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		return errors.New("ingest: server is draining")
	}
	srv.listeners[l] = struct{}{}
	srv.mu.Unlock()
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			srv.mu.Lock()
			delete(srv.listeners, l)
			draining := srv.draining
			srv.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			srv.handle(conn)
		}()
	}
}

// Shutdown drains the server: listeners close (Serve returns), every live
// session gets a drain event, which queues the drain command and wakes an
// attached session's handler to deliver the verdict, and every session ends
// before Shutdown returns. The context bounds the whole drain, including a
// drain event that waits for a captured session's handoff to resolve.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.mu.Lock()
	srv.draining = true
	for l := range srv.listeners {
		l.Close() //nolint:errcheck // shutdown path; Serve removes it
	}
	srv.mu.Unlock()
	done := make(chan struct{})
	go func() {
		// The latch is set, so no session joins the map after this list.
		for _, s := range srv.sessionList() {
			s.step(event{kind: evDrain})
		}
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sessionList returns the sessions in the map, in id order.
func (srv *Server) sessionList() []*session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	out := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// SessionCount returns how many sessions are live (attached or retained).
func (srv *Server) SessionCount() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

// QueuedFrames returns the aggregate queued-frame depth across sessions.
func (srv *Server) QueuedFrames() int { return int(srv.depth.Load()) }

func (srv *Server) logf(format string, args ...any) {
	if srv.cfg.Logf != nil {
		srv.cfg.Logf(format, args...)
	}
}

// handle owns one connection from accept to close. It performs the
// handshake, then pumps frames into the session queue until the stream
// ends, tears, or the server drains. All writes to conn happen here.
func (srv *Server) handle(conn net.Conn) {
	defer conn.Close() //nolint:errcheck // read side already decided the outcome
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(srv.cfg.ReadTimeout)) //nolint:errcheck // net.Conn deadlines
	hello, err := ReadFrame(br)
	if err == nil && srv.cfg.Cluster != nil && srv.cfg.Cluster.HandlePeer(conn, br, hello) {
		return
	}
	if err != nil || hello.Type != FrameHello {
		srv.writeError(conn, "expected hello")
		return
	}
	if srv.redirect(conn, hello) {
		return
	}
	s, reject := srv.admit(hello)
	if reject != "" {
		srv.writeError(conn, reject)
		return
	}
	if !srv.attachWithGrace(s, conn) {
		if f := s.ending(false); f != nil {
			srv.write(conn, f) //nolint:errcheck // client may be gone
			return
		}
		metRejected.Inc()
		srv.writeError(conn, "session already attached")
		return
	}
	if err := srv.write(conn, &Frame{Type: FrameHelloAck, Committed: s.committedSnapshot()}); err != nil {
		ph, _ := s.step(event{kind: evDetach})
		srv.end(conn, s, ph)
		return
	}
	srv.logf("session %s: attached (priority %d, %d channels)", s.id, s.priority, len(s.reseq))
	srv.pump(conn, br, s)
}

// redirect answers a Hello owned by another peer with a Redirect frame and
// reports whether it did. Sessions live here are always served here,
// whatever the hash says (see Cluster.RedirectFor).
func (srv *Server) redirect(conn net.Conn, hello *Frame) bool {
	cl := srv.cfg.Cluster
	if cl == nil {
		return false
	}
	addr, peer, ok := cl.RedirectFor(hello.SessionID, srv.hasSession(hello.SessionID))
	if !ok {
		return false
	}
	metRedirects.Inc()
	srv.logf("session %s: redirected to peer %d (%s)", hello.SessionID, peer, addr)
	srv.write(conn, &Frame{Type: FrameRedirect, Addr: addr, Peer: peer}) //nolint:errcheck // client may be gone
	return true
}

// hasSession reports whether the session is live here: a migrated one whose
// worker is still exiting is not, so its redial follows ownership.
func (srv *Server) hasSession(id string) bool {
	srv.mu.Lock()
	s, ok := srv.sessions[id]
	srv.mu.Unlock()
	return ok && !s.current().ended()
}

// attachWithGrace binds conn to the session, briefly retrying while the
// previous handler notices its dead connection. A reconnecting client can
// beat the server's EOF on the old connection by a scheduling quantum; that
// race should resume the session, not reject it. It reports false when the
// session ends first or the grace period runs out.
func (srv *Server) attachWithGrace(s *session, conn net.Conn) bool {
	deadline := time.Now().Add(2 * time.Second)
	for {
		ph, ok := s.step(event{kind: evAttach, conn: conn})
		if ok || ph.ended() || time.Now().After(deadline) {
			return ok
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pump is the handler read loop for an attached session. It reads until
// the session stops being attached (or captured), then ends it.
func (srv *Server) pump(conn net.Conn, br *bufio.Reader, s *session) {
	for {
		// Arm the deadline before looking at the phase: a transition after
		// the look wakes the read by moving the deadline to now.
		conn.SetReadDeadline(time.Now().Add(srv.cfg.ReadTimeout)) //nolint:errcheck // net.Conn deadlines
		if ph := s.current(); ph != attached && ph != captured {
			srv.end(conn, s, ph)
			return
		}
		f, err := ReadFrame(br)
		if err != nil {
			srv.end(conn, s, srv.readFailed(conn, s, err))
			return
		}
		metFrames.Inc()
		switch f.Type {
		case FrameData, FrameEOS:
			// A terminated session's error shows at the next look.
			err := s.enqueue(queued{f: f}, srv.cfg.EnqueueTimeout)
			if errors.Is(err, errStalled) {
				if _, ok := s.step(event{kind: evEvict, reason: "session queue stalled; evicted"}); ok {
					srv.logf("session %s: evicted (queue stalled)", s.id)
				}
			} else if err == nil {
				srv.shedIfOverloaded()
			}
		case FrameFinish:
			ph, _ := s.step(event{kind: evFinish})
			srv.end(conn, s, ph)
			return
		default:
			metMalformed.Inc()
			srv.writeError(conn, fmt.Sprintf("unexpected %v frame", f.Type))
			ph, _ := s.step(event{kind: evDetach})
			srv.end(conn, s, ph)
			return
		}
	}
}

// readFailed classifies a read-loop failure into a lifecycle event and
// returns the phase it leaves: a timeout is either a wake (the phase has
// moved on, and eviction leaves it be) or a silent client to evict;
// malformed framing and torn streams detach the session so the client can
// reconnect and resume.
func (srv *Server) readFailed(conn net.Conn, s *session, err error) phase {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		ph, ok := s.step(event{kind: evEvict, reason: "read timeout; session evicted"})
		if ok {
			srv.logf("session %s: evicted (read timeout)", s.id)
		}
		return ph
	case errors.Is(err, ErrMalformed):
		metMalformed.Inc()
		srv.logf("session %s: malformed frame: %v", s.id, err)
		srv.writeError(conn, fmt.Sprintf("malformed frame: %v", err))
	default:
		// Torn stream or peer gone: retain the session for resume.
		srv.logf("session %s: detached (%v)", s.id, err)
	}
	ph, _ := s.step(event{kind: evDetach})
	return ph
}

// end is how a handler leaves a session it stopped reading: it waits for
// the ending and writes it. A detached or captured session waits for a
// client or for its handoff instead.
func (srv *Server) end(conn net.Conn, s *session, ph phase) {
	if ph == detached || ph == captured {
		return
	}
	f := s.ending(true)
	srv.write(conn, f) //nolint:errcheck // client may be gone
	if v := f.Verdict; v != nil {
		srv.logf("session %s: %s (intrusion=%v)", s.id, v.Reason, v.Intrusion)
	}
}

// write sends one frame under a ReadTimeout write deadline, so a client
// that stops reading cannot pin the handler.
func (srv *Server) write(conn net.Conn, f *Frame) error {
	conn.SetWriteDeadline(time.Now().Add(srv.cfg.ReadTimeout)) //nolint:errcheck // net.Conn deadlines
	return WriteFrame(conn, f)
}

func (srv *Server) writeError(conn net.Conn, msg string) {
	srv.write(conn, &Frame{Type: FrameError, Message: msg}) //nolint:errcheck // best-effort report
}

// admit decides a Hello's fate: resume a retained session, reject under
// drain, overload, or tenant quota, or build a fresh session. It returns
// the session or a rejection message.
//
// The factory acquire can be slow (it may build a monitor), so admit drops
// srv.mu around it. That gap is exactly where a concurrent Hello burst used
// to over-admit: every handler observed depth below the watermark and a
// tenant below its quota, then all of them sailed through. Admission now
// reserves a tenant slot under the lock first, released on any reject
// path, and install re-checks the watermark after the acquire, so a burst
// can neither exceed a tenant's session quota nor land sessions on a server
// that saturated while the acquires were in flight.
func (srv *Server) admit(hello *Frame) (*session, string) {
	srv.mu.Lock()
	if s, ok := srv.sessions[hello.SessionID]; ok || srv.draining {
		draining := srv.draining
		srv.mu.Unlock()
		if !ok {
			metRejected.Inc()
			return nil, "server draining"
		}
		return srv.resume(hello, s, draining)
	}
	if hello.Flags&HelloFlagExpectResume != 0 {
		// The client believes it has server-side state (it resumed or was
		// migrated), but nothing is retained here — a crashed peer that never
		// handed off, or retention that expired. Reject with the typed
		// no-state message so the client downgrades to a fresh Hello instead
		// of feeding a mid-print stream into a brand-new detector.
		srv.mu.Unlock()
		metNoState.Inc()
		metRejected.Inc()
		srv.logf("session %s: resume expected but no retained state", hello.SessionID)
		return nil, noStateMsg
	}
	if int(srv.depth.Load()) >= srv.cfg.ShedWatermark {
		srv.mu.Unlock()
		metShed.Inc()
		metRejected.Inc()
		return nil, "server overloaded; session shed"
	}
	tn, quotaReject := srv.tenants.reserve(hello.Tenant)
	if quotaReject != "" {
		srv.mu.Unlock()
		metTenantRej.Inc()
		metRejected.Inc()
		return nil, quotaReject
	}
	srv.mu.Unlock()

	sink, err := srv.cfg.Factory.Acquire(hello)
	if err != nil {
		srv.tenants.release(tn, false)
		metRejected.Inc()
		return nil, err.Error()
	}
	s := newSession(srv, hello, sink, tn)
	if reject := srv.install(s, true); reject != "" {
		metRejected.Inc()
		return nil, reject
	}
	metAccepted.Inc()
	srv.journalAdmit(s) // before the worker, whose exit journals Finish
	go s.run()
	return s, ""
}

// install registers a session whose sink was acquired outside srv.mu; the
// caller starts its worker. It rejects instead, releasing the sink and the
// tenant reservation, if the server began draining or the id became active
// meanwhile, or, with overload, if the queues crossed the watermark.
func (srv *Server) install(s *session, overload bool) string {
	srv.mu.Lock()
	reject := ""
	switch {
	case srv.draining:
		reject = "server draining"
	case srv.sessions[s.id] != nil:
		reject = "session id already active"
	case overload && int(srv.depth.Load()) >= srv.cfg.ShedWatermark:
		metShed.Inc()
		reject = "server overloaded; session shed"
	}
	if reject != "" {
		srv.mu.Unlock()
		s.origin.Release(s.sink)
		srv.tenants.release(s.tenant, false)
		return reject
	}
	srv.sessions[s.id] = s
	srv.tenants.commit(s.tenant)
	srv.wg.Add(1)
	srv.mu.Unlock()
	metActive.Add(1)
	return ""
}

// journalAdmit records a freshly admitted session's identity, including the
// content-addressed model version it was pinned to (so recovery re-resolves
// the same detector even if the pool's default moved).
func (srv *Server) journalAdmit(s *session) {
	j := srv.cfg.Journal
	if j == nil {
		return
	}
	j.Admit(s.id, s.tenantID, s.modelVersion(), s.priority, s.specs)
}

// exportSessions captures every live session for a drain as its image:
// each worker is asked for a consistent capture (committed counts + monitor
// state at one instant); a worker that cannot reply within timeout falls
// back to the session's journal image — stale but migratable. A session
// that has ended, or is ending here, is never captured, so never exported.
// The caller resolves each exported session with evAck or evRefuse. Whether
// an image resumes at its commit points is Recover's rule, and whether its
// state fits a frame is encodeHandoff's.
func (srv *Server) exportSessions(timeout time.Duration) []handoffSession {
	sessions := srv.sessionList()
	// One journal pass up front: ExportLive snapshots the live-session set
	// under the journal's rotation lock, so a concurrent rotation cannot
	// yank a segment out from under the per-session fallback reads below.
	fallback := map[string]*Frame{}
	if j := srv.cfg.Journal; j != nil {
		for _, img := range j.ExportLive() {
			fallback[img.SessionID] = img
		}
	}
	var out []handoffSession
	for _, s := range sessions {
		if _, ok := s.step(event{kind: evCapture}); !ok {
			continue
		}
		img := fallback[s.id]
		if cap, err := s.exportState(timeout); err == nil {
			img = &Frame{
				Type: FrameHandoff, SessionID: s.id, Priority: s.priority, Channels: s.specs,
				Tenant: s.tenantID, Model: s.modelVersion(), Committed: cap.committed, Blob: cap.state,
			}
		} else if img != nil {
			srv.logf("session %s: live capture failed (%v); exporting last journal snapshot", s.id, err)
		} else {
			srv.logf("session %s: export failed (%v), no journal fallback; draining locally", s.id, err)
			s.step(event{kind: evRefuse})
			continue
		}
		out = append(out, handoffSession{img, s})
	}
	return out
}

// resume validates a reconnecting Hello against the retained session. The
// channel layout must match name by name, in order: a Hello with the same
// channel *count* but different names, lane counts, or rates would feed
// lanes into the wrong resequencers and produce a verdict about the wrong
// signals — reject it instead. Only a Hello that passes may learn how an
// ended session ended, and that ending comes before the drain latch: the
// attach fails and the handler answers with it (see handle).
func (srv *Server) resume(hello *Frame, s *session, draining bool) (*session, string) {
	if len(hello.Channels) != len(s.specs) {
		metRejected.Inc()
		return nil, "resume hello channel layout mismatch"
	}
	for i, ch := range hello.Channels {
		want := s.specs[i]
		if ch.Name != want.Name || ch.Lanes != want.Lanes || ch.Rate != want.Rate {
			metRejected.Inc()
			return nil, fmt.Sprintf("resume hello channel layout mismatch: channel %d is %s/%d lanes @ %g Hz, session has %s/%d lanes @ %g Hz",
				i, ch.Name, ch.Lanes, ch.Rate, want.Name, want.Lanes, want.Rate)
		}
	}
	if hello.Tenant != s.tenantID {
		metRejected.Inc()
		return nil, fmt.Sprintf("resume hello tenant mismatch: %q, session belongs to %q", hello.Tenant, s.tenantID)
	}
	switch {
	case s.current().ended():
		return s, ""
	case draining:
		metRejected.Inc()
		return nil, "server draining"
	}
	metResumed.Inc()
	srv.logf("session %s: resumed", s.id)
	return s, ""
}

// shedIfOverloaded sheds the lowest-priority live session once the
// aggregate queue depth crosses the watermark. Shedding one session frees
// its queued frames immediately (the worker discards them), so depth falls
// fast and higher-priority sessions keep their service intact.
func (srv *Server) shedIfOverloaded() {
	if int(srv.depth.Load()) < srv.cfg.ShedWatermark {
		return
	}
	var victims []*session
	for _, s := range srv.sessionList() {
		if !s.current().ended() {
			victims = append(victims, s)
		}
	}
	// With one session left there is nothing lower-priority to sacrifice for
	// it: the bounded queue already throttles it through TCP backpressure,
	// and admission control keeps new sessions out until depth falls.
	if len(victims) < 2 {
		return
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].priority != victims[j].priority {
			return victims[i].priority < victims[j].priority
		}
		return victims[i].id < victims[j].id
	})
	v := victims[0]
	if _, ok := v.step(event{kind: evShed, reason: "shed: server overloaded"}); ok {
		srv.logf("session %s: shed (priority %d, depth %d)", v.id, v.priority, srv.depth.Load())
	}
}

// removeSession is called exactly once, by the session worker on exit,
// after the session has reached its terminal phase.
func (srv *Server) removeSession(s *session) {
	srv.mu.Lock()
	delete(srv.sessions, s.id)
	srv.mu.Unlock()
	// The sink goes back to the factory that created it — for a recovered
	// session that is the pool it was restored from, not the server's own
	// factory.
	s.origin.Release(s.sink)
	srv.tenants.release(s.tenant, true)
	if j := srv.cfg.Journal; j != nil {
		j.Finish(s.id)
	}
	metActive.Add(-1)
	srv.wg.Done()
}
