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
	pending   int // admissions in flight: slot reserved, factory acquire running
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

// Shutdown drains the server: listeners close (Serve returns), attached
// handlers are woken to stop reading and flush, detached sessions are
// flushed directly, and every session's final verdict is produced before
// Shutdown returns. The context bounds the wait.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.mu.Lock()
	srv.draining = true
	ls := make([]net.Listener, 0, len(srv.listeners))
	for l := range srv.listeners {
		ls = append(ls, l)
	}
	sessions := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	for _, l := range ls {
		l.Close() //nolint:errcheck // shutdown path
	}
	for _, s := range sessions {
		s.mu.Lock()
		attached := s.conn != nil
		if s.retention != nil {
			s.retention.Stop()
			s.retention = nil
		}
		s.mu.Unlock()
		if attached {
			// The handler owns the connection: wake its blocking read; it
			// sees draining, flushes, and writes the verdict itself.
			s.wake()
		} else {
			// No handler: flush directly so the session still completes.
			s.drainDetached()
		}
	}
	done := make(chan struct{})
	go func() {
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
	if err := srv.attachWithGrace(s, conn); err != nil {
		metRejected.Inc()
		srv.writeError(conn, "session already attached")
		return
	}
	conn.SetWriteDeadline(time.Now().Add(srv.cfg.ReadTimeout)) //nolint:errcheck // net.Conn deadlines
	if err := WriteFrame(conn, &Frame{Type: FrameHelloAck, Committed: s.committedSnapshot()}); err != nil {
		s.detach(srv.cfg.Retention)
		return
	}
	srv.logf("session %s: attached (priority %d, %d channels)", s.id, s.priority, len(s.reseq))
	srv.pump(conn, br, s)
}

// redirect answers a Hello owned by another peer with a Redirect frame and
// reports whether it did. Sessions retained locally are always served here,
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
	conn.SetWriteDeadline(time.Now().Add(srv.cfg.ReadTimeout))            //nolint:errcheck // net.Conn deadlines
	WriteFrame(conn, &Frame{Type: FrameRedirect, Addr: addr, Peer: peer}) //nolint:errcheck // client may be gone
	return true
}

// hasSession reports whether the session is live here (attached or retained).
func (srv *Server) hasSession(id string) bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	_, ok := srv.sessions[id]
	return ok
}

// attachWithGrace binds conn to the session, briefly retrying while the
// previous handler notices its dead connection. A reconnecting client can
// beat the server's EOF on the old connection by a scheduling quantum; that
// race should resume the session, not reject it.
func (srv *Server) attachWithGrace(s *session, conn net.Conn) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := s.attach(conn)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pump is the handler read loop for an attached session.
func (srv *Server) pump(conn net.Conn, br *bufio.Reader, s *session) {
	for {
		if s.terminated() {
			srv.writeError(conn, s.terminationMessage())
			return
		}
		if srv.isDraining() {
			srv.drainSession(conn, s)
			return
		}
		conn.SetReadDeadline(time.Now().Add(srv.cfg.ReadTimeout)) //nolint:errcheck // net.Conn deadlines
		f, err := ReadFrame(br)
		if err != nil {
			srv.readFailed(conn, s, err)
			return
		}
		metFrames.Inc()
		switch f.Type {
		case FrameData, FrameEOS:
			if err := s.enqueue(queued{f: f}, srv.cfg.EnqueueTimeout); err != nil {
				if errors.Is(err, errStalled) {
					s.terminate("session queue stalled; evicted")
					metEvicted.Inc()
					srv.logf("session %s: evicted (queue stalled)", s.id)
				}
				srv.writeError(conn, s.terminationMessage())
				return
			}
			srv.shedIfOverloaded()
		case FrameFinish:
			if err := s.enqueue(queued{reason: "finished"}, srv.cfg.EnqueueTimeout); err != nil {
				srv.writeError(conn, s.terminationMessage())
				return
			}
			srv.deliverOutcome(conn, s)
			return
		default:
			metMalformed.Inc()
			srv.writeError(conn, fmt.Sprintf("unexpected %v frame", f.Type))
			s.detach(srv.cfg.Retention)
			return
		}
	}
}

// readFailed classifies a read-loop failure and routes it: wake-ups land in
// the drain/termination paths, idle timeouts evict, malformed framing and
// torn streams detach the session so the client can reconnect and resume.
func (srv *Server) readFailed(conn net.Conn, s *session, err error) {
	var ne net.Error
	timeout := errors.As(err, &ne) && ne.Timeout()
	switch {
	case s.terminated():
		srv.writeError(conn, s.terminationMessage())
	case srv.isDraining():
		srv.drainSession(conn, s)
	case timeout:
		s.terminate("read timeout; session evicted")
		metEvicted.Inc()
		srv.logf("session %s: evicted (read timeout)", s.id)
		srv.writeError(conn, s.terminationMessage())
	case errors.Is(err, ErrMalformed):
		metMalformed.Inc()
		srv.logf("session %s: malformed frame: %v", s.id, err)
		srv.writeError(conn, fmt.Sprintf("malformed frame: %v", err))
		s.detach(srv.cfg.Retention)
	default:
		// Torn stream or peer gone: retain the session for resume.
		srv.logf("session %s: detached (%v)", s.id, err)
		s.detach(srv.cfg.Retention)
	}
}

// drainSession flushes one attached session during shutdown and writes its
// final verdict to the still-connected client.
func (srv *Server) drainSession(conn net.Conn, s *session) {
	if err := s.enqueue(queued{reason: "drained"}, 0); err != nil {
		srv.writeError(conn, s.terminationMessage())
		return
	}
	metDrained.Inc()
	srv.deliverOutcome(conn, s)
	srv.logf("session %s: drained", s.id)
}

// deliverOutcome waits for the worker's terminal outcome and reports it.
func (srv *Server) deliverOutcome(conn net.Conn, s *session) {
	out := <-s.outcomeCh
	if out.err != nil {
		srv.writeError(conn, fmt.Sprintf("session failed: %v", out.err))
		return
	}
	metCompleted.Inc()
	conn.SetWriteDeadline(time.Now().Add(srv.cfg.ReadTimeout))   //nolint:errcheck // net.Conn deadlines
	WriteFrame(conn, &Frame{Type: FrameVerdict, Verdict: out.v}) //nolint:errcheck // client may be gone
	srv.logf("session %s: %s (intrusion=%v)", s.id, out.v.Reason, out.v.Intrusion)
}

func (srv *Server) writeError(conn net.Conn, msg string) {
	conn.SetWriteDeadline(time.Now().Add(srv.cfg.ReadTimeout)) //nolint:errcheck // net.Conn deadlines
	WriteFrame(conn, &Frame{Type: FrameError, Message: msg})   //nolint:errcheck // best-effort report
}

func (srv *Server) isDraining() bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.draining
}

// admit decides a Hello's fate: resume a retained session, reject under
// drain, overload, or tenant quota, or build a fresh session. It returns
// the session or a rejection message.
//
// The factory acquire can be slow (it may build a monitor), so admit drops
// srv.mu around it. That gap is exactly where a concurrent Hello burst used
// to over-admit: every handler observed depth below the watermark and a
// tenant below its quota, then all of them sailed through. Admission now
// reserves a slot under the lock first — srv.pending plus a tenant
// reservation, both released on any reject path — and re-checks the
// watermark after the acquire, so a burst can neither exceed a tenant's
// session quota nor land sessions on a server that saturated while the
// acquires were in flight.
func (srv *Server) admit(hello *Frame) (*session, string) {
	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		metRejected.Inc()
		return nil, "server draining"
	}
	if s, ok := srv.sessions[hello.SessionID]; ok {
		srv.mu.Unlock()
		if s.terminated() {
			metRejected.Inc()
			return nil, s.terminationMessage()
		}
		return srv.resume(hello, s)
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
	srv.pending++
	srv.mu.Unlock()

	reject := func(msg string) (*session, string) {
		srv.mu.Lock()
		srv.pending--
		srv.mu.Unlock()
		srv.tenants.release(tn, false)
		metRejected.Inc()
		return nil, msg
	}
	sink, err := srv.cfg.Factory.Acquire(hello)
	if err != nil {
		return reject(err.Error())
	}
	s := newSession(srv, hello, sink, tn)

	srv.mu.Lock()
	srv.pending--
	if srv.draining {
		srv.mu.Unlock()
		srv.cfg.Factory.Release(sink)
		srv.tenants.release(tn, false)
		metRejected.Inc()
		return nil, "server draining"
	}
	if _, ok := srv.sessions[hello.SessionID]; ok {
		srv.mu.Unlock()
		srv.cfg.Factory.Release(sink)
		srv.tenants.release(tn, false)
		metRejected.Inc()
		return nil, "session id already active"
	}
	// Re-check the watermark: depth may have crossed it while the factory
	// acquire ran outside the lock.
	if int(srv.depth.Load()) >= srv.cfg.ShedWatermark {
		srv.mu.Unlock()
		srv.cfg.Factory.Release(sink)
		srv.tenants.release(tn, false)
		metShed.Inc()
		metRejected.Inc()
		return nil, "server overloaded; session shed"
	}
	srv.sessions[hello.SessionID] = s
	srv.tenants.commit(tn)
	srv.wg.Add(1)
	srv.mu.Unlock()
	metAccepted.Inc()
	metActive.Add(1)
	srv.journalAdmit(s)
	go s.run()
	return s, ""
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

// ExportSessions serializes every live session's resume point for a drain:
// each worker is asked for a consistent capture (committed counts + monitor
// state at one instant); a worker that cannot reply within timeout falls
// back to the session's last durable journal snapshot — stale but
// migratable — and is skipped only when neither exists. Sessions whose sink
// holds no serializable state migrate with zeroed commit points: the client
// rewinds to frame 0 and resends, so the successor's fresh detector sees
// the whole stream and the verdict stays correct (this deliberately differs
// from the journal's keep-committed policy, which only has to survive a
// restart of the same process with the same sink).
func (srv *Server) ExportSessions(timeout time.Duration) []HandoffSession {
	srv.mu.Lock()
	sessions := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	// One journal pass up front: ExportLive snapshots the live-session set
	// under the journal's rotation lock, so a concurrent rotation cannot
	// yank a segment out from under the per-session fallback reads below.
	fallback := map[string]RecoveredSession{}
	if j := srv.cfg.Journal; j != nil {
		for _, rs := range j.ExportLive() {
			fallback[rs.SessionID] = rs
		}
	}
	var out []HandoffSession
	for _, s := range sessions {
		if s.terminated() {
			continue
		}
		cap, err := s.exportState(timeout)
		if err != nil {
			if rs, ok := fallback[s.id]; ok {
				srv.logf("session %s: live capture failed (%v); exporting last journal snapshot", s.id, err)
				out = append(out, HandoffSession{RecoveredSession: rs, sess: s})
			} else {
				srv.logf("session %s: export failed (%v), no journal fallback; draining locally", s.id, err)
			}
			continue
		}
		rs := RecoveredSession{
			SessionID: s.id,
			Tenant:    s.tenantID,
			Model:     s.modelVersion(),
			Priority:  s.priority,
			Channels:  append([]ChannelSpec(nil), s.specs...),
			Committed: cap.committed,
			State:     cap.state,
		}
		if len(rs.State) == 0 || len(rs.State) > MaxFramePayload-1024 {
			// Stateless capture (plain sink) or a state too big for one
			// Handoff frame: migrate identity only and restart the stream.
			if len(rs.State) > 0 {
				srv.logf("session %s: %d-byte state exceeds handoff frame; migrating without state", s.id, len(rs.State))
			}
			rs.State = nil
			rs.Committed = make([]uint64, len(rs.Channels))
		}
		out = append(out, HandoffSession{RecoveredSession: rs, sess: s})
	}
	return out
}

// resume validates a reconnecting Hello against the retained session. The
// channel layout must match name by name, in order: a Hello with the same
// channel *count* but different names, lane counts, or rates would feed
// lanes into the wrong resequencers and produce a verdict about the wrong
// signals — reject it instead.
func (srv *Server) resume(hello *Frame, s *session) (*session, string) {
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
	srv.mu.Lock()
	var victims []*session
	for _, s := range srv.sessions {
		if !s.terminated() {
			victims = append(victims, s)
		}
	}
	srv.mu.Unlock()
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
	v.terminate("shed: server overloaded")
	metShed.Inc()
	srv.logf("session %s: shed (priority %d, depth %d)", v.id, v.priority, srv.depth.Load())
	v.wake()
}

// removeSession is called exactly once, by the session worker on exit.
func (srv *Server) removeSession(s *session) {
	srv.mu.Lock()
	delete(srv.sessions, s.id)
	srv.mu.Unlock()
	s.mu.Lock()
	if s.retention != nil {
		s.retention.Stop()
		s.retention = nil
	}
	if s.isDetached {
		s.isDetached = false
		metDetached.Add(-1)
	}
	s.mu.Unlock()
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
