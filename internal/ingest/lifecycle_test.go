package ingest

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nsync/internal/obs"
	"nsync/internal/sigproc"
)

// TestLifecycleTable walks every (phase, event) pair through the session's
// transition function and checks the next phase, the client-visible ending,
// quit, the retention timer, the session.detached gauge, the journal Detach
// record, the worker command queued on entering finishing or draining, and
// the one counter an ending moves.
func TestLifecycleTable(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	j, _ := openTestJournal(t, t.TempDir(), JournalConfig{})
	t.Cleanup(func() { j.Close() })
	srv, err := NewServer(Config{Factory: &countFactory{}, Journal: j, Retention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	pipe := func() net.Conn {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		return a
	}
	apply := func(s *session, ev event) (phase, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if ev.kind == evAttach {
			ev.conn = pipe()
		}
		return s.apply(ev)
	}

	verdict := &Verdict{Reason: "v"}
	ev := map[string]event{
		"attach": {kind: evAttach}, "detach": {kind: evDetach}, "finish": {kind: evFinish},
		"drain": {kind: evDrain}, "capture": {kind: evCapture}, "ack": {kind: evAck},
		"refuse": {kind: evRefuse}, "expire": {kind: evExpire, reason: "session retention expired"},
		"shed":    {kind: evShed, reason: "shed: server overloaded"},
		"evict":   {kind: evEvict, reason: "read timeout; session evicted"},
		"fail":    {kind: evFail, reason: "session failed: boom"},
		"verdict": {kind: evVerdict, verdict: verdict},
	}
	order := []string{"attach", "detach", "finish", "drain", "capture", "ack", "refuse", "expire", "shed", "evict", "fail", "verdict"}
	// Each row names the events that lead from a fresh session (attached,
	// its handler not yet bound) to the phase under test, then the phase
	// each event in order leaves it in. A Finish, drain, eviction or worker
	// failure leaves a captured session as it is: step makes the caller wait
	// for the handoff to resolve.
	const (
		at, de, ca, fi, dr = attached, detached, captured, finishing, draining
		FI, DR, MI, TE     = finished, drained, migrated, terminated
	)
	rows := []struct {
		name  string
		setup []string
		next  [12]phase
	}{
		{"attached, unbound", nil, [12]phase{at, de, fi, dr, ca, at, at, at, TE, TE, TE, at}},
		{"attached", []string{"attach"}, [12]phase{at, de, fi, dr, ca, at, at, at, TE, TE, TE, at}},
		{"detached", []string{"attach", "detach"}, [12]phase{at, de, de, dr, ca, de, de, TE, TE, de, TE, de}},
		{"captured, attached", []string{"attach", "capture"}, [12]phase{ca, ca, ca, ca, ca, MI, at, ca, ca, ca, ca, ca}},
		{"captured, detached", []string{"attach", "detach", "capture"}, [12]phase{ca, ca, ca, ca, ca, MI, de, ca, ca, ca, ca, ca}},
		{"finishing", []string{"attach", "finish"}, [12]phase{fi, fi, fi, fi, fi, fi, fi, fi, TE, fi, TE, FI}},
		{"draining", []string{"attach", "drain"}, [12]phase{dr, dr, dr, dr, dr, dr, dr, dr, TE, dr, TE, DR}},
		{"finished", []string{"attach", "finish", "verdict"}, [12]phase{FI, FI, FI, FI, FI, FI, FI, FI, FI, FI, FI, FI}},
		{"drained", []string{"attach", "drain", "verdict"}, [12]phase{DR, DR, DR, DR, DR, DR, DR, DR, DR, DR, DR, DR}},
		{"migrated", []string{"attach", "capture", "ack"}, [12]phase{MI, MI, MI, MI, MI, MI, MI, MI, MI, MI, MI, MI}},
		{"terminated", []string{"attach", "evict"}, [12]phase{TE, TE, TE, TE, TE, TE, TE, TE, TE, TE, TE, TE}},
	}
	// endCounter is the one counter each ending moves.
	endCounter := func(to phase, kind eventKind) *obs.Counter {
		switch to {
		case finished:
			return metCompleted
		case drained:
			return metDrained
		case migrated:
			return metHandoffOut
		}
		switch kind {
		case evShed:
			return metShed
		case evFail:
			return metFailed
		}
		return metEvicted
	}
	counters := []*obs.Counter{metCompleted, metDrained, metHandoffOut, metShed, metEvicted, metFailed}

	for _, row := range rows {
		for i, name := range order {
			s := newSession(srv, &Frame{SessionID: row.name + "/" + name, Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 100}}}, &countSink{samples: []int{0}}, nil)
			for _, step := range row.setup {
				apply(s, ev[step])
			}
			from, reason0 := s.phase, s.reason
			before := make([]int64, len(counters))
			for k, c := range counters {
				before[k] = c.Value()
			}
			gauge0, appends0 := metDetached.Value(), metJournalAppends.Value()
			bound0 := s.conn != nil

			to, ok := apply(s, ev[name])
			cell := row.name + " × " + name
			if want := row.next[i]; to != want || s.phase != want {
				t.Errorf("%s: phase %d, want %d", cell, to, want)
				continue
			}
			if name == "attach" {
				if wantBound := !bound0 && (from == attached || from == detached || from == captured); ok != wantBound {
					t.Errorf("%s: attach bound=%v, want %v", cell, ok, wantBound)
				}
			} else if ok != (to != from) {
				t.Errorf("%s: took effect=%v with phase %d -> %d", cell, ok, from, to)
			}

			// The client-visible ending.
			f := s.ending(false)
			switch {
			case !to.ended():
				if f != nil {
					t.Errorf("%s: live session has an ending %+v", cell, f)
				}
			case to == finished || to == drained:
				if f == nil || f.Type != FrameVerdict || f.Verdict != verdict {
					t.Errorf("%s: ending %+v, want the verdict", cell, f)
				}
			case to == migrated:
				if f == nil || f.Type != FrameError || f.Message != migratedMsg {
					t.Errorf("%s: ending %+v, want %q", cell, f, migratedMsg)
				}
			default:
				want := reason0
				if from != to {
					want = ev[name].reason
				}
				if f == nil || f.Type != FrameError || f.Message != want {
					t.Errorf("%s: ending %+v, want error %q", cell, f, want)
				}
			}

			select {
			case <-s.quit:
				if !to.ended() {
					t.Errorf("%s: quit closed on a live session", cell)
				}
			default:
				if to.ended() {
					t.Errorf("%s: quit open after the session ended", cell)
				}
			}
			if armed := s.retention != nil; armed != (to == detached) {
				t.Errorf("%s: retention armed=%v in phase %d", cell, armed, to)
			}
			wantGauge, wantAppends := 0.0, int64(0)
			if to == detached && from != detached {
				wantGauge, wantAppends = 1, 1
			} else if from == detached && to != detached {
				wantGauge = -1
			}
			if d := metDetached.Value() - gauge0; d != wantGauge {
				t.Errorf("%s: session.detached moved %v, want %v", cell, d, wantGauge)
			}
			if d := metJournalAppends.Value() - appends0; d != wantAppends {
				t.Errorf("%s: %d journal records, want %d (Detach)", cell, d, wantAppends)
			}
			var want *obs.Counter
			if to != from && to.ended() {
				want = endCounter(to, ev[name].kind)
			}
			for k, c := range counters {
				d := c.Value() - before[k]
				if c == want && d != 1 || c != want && d != 0 {
					t.Errorf("%s: %s moved %d", cell, c.Name(), d)
				}
			}
			if to != from && (to == finishing || to == draining) {
				want := map[phase]string{finishing: "finished", draining: "drained"}[to]
				select {
				case q := <-s.queue:
					if q.reason != want {
						t.Errorf("%s: queued %+v, want the %s command", cell, q, want)
					}
				case <-time.After(5 * time.Second):
					t.Errorf("%s: no %s command queued", cell, want)
				}
			}
			if s.retention != nil {
				s.retention.Stop()
			}
		}
	}
}

// gateSink holds every Push and Finish until gate closes, announcing each
// call on entered first: the event a test waits on to know the worker is
// busy (QueuedFrames() == 0 also holds before a frame arrives).
type gateSink struct {
	entered chan string // buffered past any test's calls, so announcing never blocks
	gate    chan struct{}
}

func newGateSink() *gateSink {
	return &gateSink{entered: make(chan string, 16), gate: make(chan struct{})}
}

func (s *gateSink) Push(int, []float64) error {
	s.entered <- "push"
	<-s.gate
	return nil
}

func (s *gateSink) Finish(reason string) (*Verdict, error) {
	s.entered <- "finish"
	<-s.gate
	return &Verdict{Reason: reason}, nil
}

// open lets every held and later call through; safe to call twice.
func (s *gateSink) open() {
	select {
	case <-s.gate:
	default:
		close(s.gate)
	}
}

type gateFactory struct{ sink *gateSink }

func (f gateFactory) Acquire(*Frame) (Sink, error) { return f.sink, nil }
func (f gateFactory) Release(Sink)                 {}

// waitFrames waits until the server's handlers have read n frames since
// base: the event that says a frame sent by a test reached its handler.
func waitFrames(t *testing.T, base, n int64) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool { return metFrames.Value()-base >= n })
}

// TestLifecycleFinishQueuedThenMigrated: the client's Finish arrives while
// the worker is busy and the session is captured for a handoff, and the
// successor's ack lands before the worker is free. The client must get a
// verdict or the retryable migrated rejection — never a fatal "session
// terminated" because the worker took the migration before the Finish.
func TestLifecycleFinishQueuedThenMigrated(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	sink := newGateSink()
	addr, srv := startServer(t, Config{Factory: gateFactory{sink}, ReadTimeout: 10 * time.Second, Retention: time.Minute})
	t.Cleanup(sink.open) // before the server's Shutdown, which waits for the worker
	c, err := Dial(addr, oneChanHello("busy", 1), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	exported := srv.exportSessions(5 * time.Second)
	if len(exported) != 1 {
		t.Fatalf("exported %d sessions, want 1", len(exported))
	}
	t.Cleanup(func() { exported[0].sess.step(event{kind: evRefuse}) }) // unresolved, it would block Shutdown
	base := metFrames.Value()
	if err := c.SendData(0, 0, make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	<-sink.entered // the worker is busy on the frame
	if err := WriteFrame(c.conn, &Frame{Type: FrameFinish}); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, base, 2)
	exported[0].sess.step(event{kind: evAck})
	sink.open()

	v, err := c.AwaitVerdict(5 * time.Second)
	if err != nil && !isMigratedReject(err) {
		t.Fatalf("client got %v, want a verdict or the migrated rejection", err)
	}
	if err == nil && v.Reason != "finished" {
		t.Fatalf("verdict reason %q, want finished", v.Reason)
	}
}

// startDrainPeer serves factory's sessions as peer 0 of a two-peer fleet
// whose peer 1 is at other, returning the server, its cluster, and the
// channel Serve's result arrives on. Probes only run when a test asks.
func startDrainPeer(t *testing.T, factory SinkFactory, cfg Config, other string) (*Server, *Cluster, chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{Peers: []string{l.Addr().String(), other}, PeerID: 0, ProbeTimeout: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Factory, cfg.Cluster, cfg.Logf = factory, cl, t.Logf
	cfg.ReadTimeout, cfg.Retention = 10*time.Second, time.Minute
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Bind(srv, nil)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	return srv, cl, serveErr
}

// TestLifecycleRedialMigratedDuringShutdown: a migrated session whose
// worker is still busy stays in the session map while Shutdown begins. The
// client's redial must be redirected to the successor (or told the session
// migrated), never rejected with the fatal "server draining".
func TestLifecycleRedialMigratedDuringShutdown(t *testing.T) {
	sink := newGateSink()
	const successor = "127.0.0.1:1" // never dialed: no probes, no pushes
	srv, cl, serveErr := startDrainPeer(t, gateFactory{sink}, Config{}, successor)
	t.Cleanup(func() {
		sink.open()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // the test checks its own Shutdown
	})
	addr := cl.Self()

	hello := Hello{SessionID: sessionOwnedBy(t, 0, 2), Priority: 1, Channels: oneChanHello("", 1).Channels}
	c, err := Dial(addr, hello, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exported := srv.exportSessions(5 * time.Second)
	if len(exported) != 1 {
		t.Fatalf("exported %d sessions, want 1", len(exported))
	}
	t.Cleanup(func() { exported[0].sess.step(event{kind: evRefuse}) }) // unresolved, it would block Shutdown
	if err := c.SendData(0, 0, make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	<-sink.entered // the worker is busy, so the session stays in the map once it ends
	cl.draining.Store(true)
	exported[0].sess.step(event{kind: evAck})
	if _, err := c.AwaitVerdict(5 * time.Second); !isMigratedReject(err) {
		t.Fatalf("attached client got %v, want the migrated rejection", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	if err := <-serveErr; err != nil { // Serve returns once Shutdown has latched the drain
		t.Fatalf("serve: %v", err)
	}

	// The redial, handed straight to a handler: the listener is closed.
	client, server := net.Pipe()
	defer client.Close()
	go srv.handle(server)
	redial := &Frame{Type: FrameHello, SessionID: hello.SessionID, Priority: hello.Priority, Channels: hello.Channels, Flags: HelloFlagExpectResume}
	if err := WriteFrame(client, redial); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(bufio.NewReader(client))
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case f.Type == FrameRedirect && f.Addr == successor:
	case f.Type == FrameError && strings.Contains(f.Message, "migrated"):
	default:
		t.Fatalf("redial got %v %q, want a redirect to the successor or the migrated rejection", f.Type, f.Message)
	}
	sink.open()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// stubSuccessor is a fleet peer that answers probes and receives handoffs,
// holding each ack until release closes — a push kept in flight.
type stubSuccessor struct {
	addr     string
	received chan string // session ids as their Handoff frames arrive; buffered past any test's pushes
	release  chan struct{}
}

func startStubSuccessor(t *testing.T) *stubSuccessor {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := &stubSuccessor{addr: l.Addr().String(), received: make(chan string, 16), release: make(chan struct{})}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		l.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					f, err := ReadFrame(br)
					if err != nil {
						return
					}
					reply := &Frame{Type: FramePong, Peer: 1}
					if f.Type == FrameHandoff {
						st.received <- f.SessionID
						<-st.release
						reply = &Frame{Type: FrameHandoffAck, SessionID: f.SessionID}
					}
					if WriteFrame(conn, reply) != nil {
						return
					}
				}
			}()
		}
	}()
	return st
}

// TestLifecycleEndWhileHandoffInFlight: a session cannot both end here and
// be installed at the successor. A Finish that arrives while the push is in
// flight waits for it and, once the successor acks, gets the migrated
// rejection; and a session whose Finish is already running is never
// exported, not even from its journal snapshot.
func TestLifecycleEndWhileHandoffInFlight(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })

	t.Run("finish during push", func(t *testing.T) {
		st := startStubSuccessor(t)
		sink := newGateSink()
		sink.open()
		srv, cl, serveErr := startDrainPeer(t, gateFactory{sink}, Config{}, st.addr)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
		var release sync.Once
		t.Cleanup(func() { release.Do(func() { close(st.release) }) }) // before Shutdown, which waits out the push
		c, err := Dial(cl.Self(), oneChanHello(sessionOwnedBy(t, 0, 2), 1), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.SendData(0, 0, make([]float64, 10)); err != nil {
			t.Fatal(err)
		}
		type result struct{ migrated, failed int }
		done := make(chan result, 1)
		go func() {
			m, f := cl.HandoffAll(context.Background())
			done <- result{m, f}
		}()
		select {
		case <-st.received: // the successor has installed the session; its ack is held
		case <-time.After(10 * time.Second):
			t.Fatal("no handoff reached the successor")
		}
		base := metFrames.Value()
		if err := c.SendEOS(0, 10); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(c.conn, &Frame{Type: FrameFinish}); err != nil {
			t.Fatal(err)
		}
		waitFrames(t, base, 2)
		release.Do(func() { close(st.release) })
		if r := <-done; r.migrated != 1 || r.failed != 0 {
			t.Fatalf("HandoffAll = %+v, want 1 migrated", r)
		}
		v, err := c.AwaitVerdict(5 * time.Second)
		if err == nil {
			t.Fatalf("session ended here with verdict %+v and was also installed at the successor", v)
		}
		if !isMigratedReject(err) {
			t.Fatalf("client got %v, want the migrated rejection", err)
		}
	})

	t.Run("finish running", func(t *testing.T) {
		sink := newGateSink()
		j, _ := openTestJournal(t, t.TempDir(), JournalConfig{})
		t.Cleanup(func() { j.Close() })
		addr, srv := startServer(t, Config{Factory: gateFactory{sink}, Journal: j, ReadTimeout: 10 * time.Second})
		t.Cleanup(sink.open) // before the server's Shutdown, which waits for the worker
		c, err := Dial(addr, oneChanHello("ending", 1), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := WriteFrame(c.conn, &Frame{Type: FrameFinish}); err != nil {
			t.Fatal(err)
		}
		if got := <-sink.entered; got != "finish" {
			t.Fatalf("sink entered %s, want finish", got)
		}
		exported := srv.exportSessions(100 * time.Millisecond)
		for _, hs := range exported {
			hs.sess.step(event{kind: evRefuse})
		}
		if len(exported) != 0 {
			t.Fatalf("exported %d sessions whose Finish was running, want 0", len(exported))
		}
		sink.open()
		if v, err := c.AwaitVerdict(5 * time.Second); err != nil || v.Reason != "finished" {
			t.Fatalf("client got %+v, %v, want the finished verdict", v, err)
		}
	})
}

// TestLifecycleEndedSessionAnswersOnlyItsClient: a finished session whose
// worker is still exiting stays in the session map. A Hello for its id with
// another tenant or channel layout gets the mismatch rejection, never the
// verdict; and a fresh Replay that reuses the id does not take the earlier
// print's verdict as its own: it redials until that session is gone.
func TestLifecycleEndedSessionAnswersOnlyItsClient(t *testing.T) {
	addr, srv := startServer(t, Config{Factory: &countFactory{}})
	hello := oneChanHello("over", 1)
	hello.Tenant = "shop-a"
	s := newSession(srv, &Frame{SessionID: hello.SessionID, Tenant: hello.Tenant, Channels: hello.Channels}, &countSink{samples: []int{0}}, nil)
	s.mu.Lock()
	s.apply(event{kind: evFinish})
	s.apply(event{kind: evVerdict, verdict: &Verdict{Reason: "earlier print", Intrusion: true}})
	s.mu.Unlock()
	srv.mu.Lock()
	srv.sessions[s.id] = s // its worker is exiting
	srv.mu.Unlock()

	for _, tc := range []struct {
		name string
		h    Hello
		want string
	}{
		{"tenant", Hello{SessionID: hello.SessionID, Tenant: "shop-b", Channels: hello.Channels}, "tenant mismatch"},
		{"layout", Hello{SessionID: hello.SessionID, Tenant: hello.Tenant, Channels: []ChannelSpec{{Name: "MAG", Lanes: 3, Rate: 100}}}, "layout mismatch"},
	} {
		for _, resume := range []bool{false, true} {
			tc.h.ExpectResume = resume
			c, err := Dial(addr, tc.h, 5*time.Second)
			if err == nil {
				c.Close()
			}
			var se *ServerError
			if !errors.As(err, &se) || !strings.Contains(se.Msg, tc.want) {
				t.Errorf("%s mismatch (resume=%v): Dial got %v, want the %q rejection", tc.name, resume, err, tc.want)
			}
		}
	}

	sig := noiseML(rand.New(rand.NewSource(5)), 100, 1, 300)
	stats := &ReplayStats{}
	v, err := Replay(addr, hello, []*sigproc.Signal{sig}, ReplayOptions{MaxDials: 3, DialBackoff: time.Millisecond, Stats: stats})
	if err == nil {
		t.Fatalf("fresh replay returned %+v, the earlier print's verdict", v)
	}
	if stats.Dials != 3 {
		t.Errorf("fresh replay dialed %d times, want 3: a verdict answering a fresh Hello is retryable", stats.Dials)
	}
	srv.mu.Lock()
	delete(srv.sessions, s.id) // the worker has exited
	srv.mu.Unlock()
	v, err = Replay(addr, hello, []*sigproc.Signal{sig}, ReplayOptions{})
	if err != nil || v.Reason != "finished" || v.Intrusion {
		t.Fatalf("replay once the id is free: %+v, %v, want its own verdict", v, err)
	}
}

// scriptedServer answers one connection per step, in order, and reports
// each Hello it read on hellos.
func scriptedServer(t *testing.T, steps ...func(net.Conn, *bufio.Reader)) (addr string, hellos chan *Frame) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hellos = make(chan *Frame, len(steps))
	done := make(chan struct{})
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	go func() {
		defer close(done)
		for _, step := range steps {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(conn)
			if f, err := ReadFrame(br); err == nil {
				hellos <- f
				step(conn, br)
			}
			conn.Close()
		}
	}()
	return l.Addr().String(), hellos
}

// TestLifecycleResumeRedialFindsVerdict: Replay takes a verdict in place of a
// HelloAck as its result only on a resume redial, after a HelloAck of its
// own — the reply to its Finish was lost and the session has ended since. A
// verdict answering its first Hello belongs to an earlier print that used
// the id: Replay redials with a fresh Hello and returns its own verdict.
func TestLifecycleResumeRedialFindsVerdict(t *testing.T) {
	verdict := func(reason string) func(net.Conn, *bufio.Reader) {
		return func(conn net.Conn, _ *bufio.Reader) {
			WriteFrame(conn, &Frame{Type: FrameVerdict, Verdict: &Verdict{Reason: reason}}) //nolint:errcheck // the client decides
		}
	}
	// acked acks the Hello and reads up to the Finish, then answers it with
	// reason, or hangs up when reason is empty.
	acked := func(reason string) func(net.Conn, *bufio.Reader) {
		return func(conn net.Conn, br *bufio.Reader) {
			if WriteFrame(conn, &Frame{Type: FrameHelloAck, Committed: []uint64{0}}) != nil {
				return
			}
			for {
				f, err := ReadFrame(br)
				if err != nil {
					return
				}
				if f.Type == FrameFinish {
					break
				}
			}
			if reason != "" {
				verdict(reason)(conn, br)
			}
		}
	}
	sig := noiseML(rand.New(rand.NewSource(5)), 100, 1, 300)
	for _, tc := range []struct {
		name       string
		steps      []func(net.Conn, *bufio.Reader)
		want       string
		wantResume bool // the second Hello's ExpectResume flag
	}{
		{"redial after the Finish reply was lost", []func(net.Conn, *bufio.Reader){acked(""), verdict("finished here")}, "finished here", true},
		{"first Hello answered by a verdict", []func(net.Conn, *bufio.Reader){verdict("earlier print"), acked("own")}, "own", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, hellos := scriptedServer(t, tc.steps...)
			v, err := Replay(addr, oneChanHello("lost", 1), []*sigproc.Signal{sig}, ReplayOptions{DialBackoff: time.Millisecond})
			if err != nil || v.Reason != tc.want {
				t.Fatalf("replay: %+v, %v, want verdict %q", v, err, tc.want)
			}
			<-hellos
			if h := <-hellos; (h.Flags&HelloFlagExpectResume != 0) != tc.wantResume {
				t.Errorf("second Hello flags %#x, want ExpectResume=%v", h.Flags, tc.wantResume)
			}
		})
	}
}

// TestLifecycleShutdownBoundedWhileCaptured: a drain event waits while its
// session is captured for a handoff, and the Shutdown context bounds that
// wait too. Once the push is refused, the session drains and its client
// gets the verdict.
func TestLifecycleShutdownBoundedWhileCaptured(t *testing.T) {
	addr, srv := startServer(t, Config{Factory: &countFactory{}})
	c, err := Dial(addr, oneChanHello("held", 1), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exported := srv.exportSessions(5 * time.Second)
	if len(exported) != 1 {
		t.Fatalf("exported %d sessions, want 1", len(exported))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with a capture unresolved: %v, want the context's deadline", err)
	}
	exported[0].sess.step(event{kind: evRefuse})
	if v, err := c.AwaitVerdict(5 * time.Second); err != nil || v.Reason != "drained" {
		t.Fatalf("client got %+v, %v, want the drained verdict", v, err)
	}
}

// TestReplayRedirectBounceBacksOff: peer 0 drains, but peer 1 still sees it
// alive for 300 ms, so the two bounce a peer-0-owned Hello back and forth.
// The client must wait a backoff step on each bounce and reach a verdict
// once peer 1's view catches up, not spend its redirect budget in
// milliseconds.
func TestReplayRedirectBounceBacksOff(t *testing.T) {
	fx := fixture(t)
	var version string
	fleet := startFleetPeers(t, 2, func(int) *SharedPool {
		pool := NewSharedPool(nil)
		v, err := pool.Register(fixtureModel(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		version = v
		return pool
	})
	fleet[0].cluster.draining.Store(true) // latched, not yet announced
	stale := time.AfterFunc(300*time.Millisecond, func() { fleet[1].cluster.peerDraining(0) })
	defer stale.Stop()

	rng := rand.New(rand.NewSource(41))
	runs := []*sigproc.Signal{perturbed(rng, fx.refs[0]), perturbed(rng, fx.refs[1])}
	stats := &ReplayStats{}
	v, err := Replay(fleet[0].addr, Hello{SessionID: sessionOwnedBy(t, 0, 2), Priority: 5, Channels: fx.specs, Model: version},
		runs, ReplayOptions{FrameSamples: 100, Stats: stats})
	if err != nil {
		t.Fatalf("replay across a stale ownership view: %v", err)
	}
	if v.Intrusion {
		t.Errorf("benign run flagged as intrusion: %+v", v)
	}
	if stats.Redirects < 2 {
		t.Errorf("Redirects = %d, want the bounce to have happened", stats.Redirects)
	}
}

// TestLifecycleEnqueueAfterEndLeaksNoDepth: a handler holding a frame when a
// shed ends its session enqueues it after the worker has discarded the
// queue. The enqueue must fail and leave no frame queued: the server's and
// the tenant's depth come back down, or the leak counts toward the shed
// watermark and the tenant's queued-frame quota for good. Enqueues racing
// the ending leave nothing behind either.
func TestLifecycleEnqueueAfterEndLeaksNoDepth(t *testing.T) {
	srv, err := NewServer(Config{Factory: &countFactory{}})
	if err != nil {
		t.Fatal(err)
	}
	tn := &tenant{id: "shop-a"}
	hello := &Frame{SessionID: "late", Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 100}}}
	frame := queued{f: &Frame{Type: FrameData, Values: []float64{1}}}
	check := func(s *session, when string) {
		t.Helper()
		if d, td, n := srv.depth.Load(), tn.depth.Load(), len(s.queue); d != 0 || td != 0 || n != 0 {
			t.Fatalf("%s: server depth %d, tenant depth %d, %d queued; want all 0", when, d, td, n)
		}
	}
	for i := 0; i < 50; i++ {
		s := newSession(srv, hello, &countSink{samples: []int{0}}, tn)
		s.step(event{kind: evShed, reason: "shed"})
		s.discardQueue() // the worker's exit
		if err := s.enqueue(frame, time.Second); !errors.Is(err, errTerminated) {
			t.Fatalf("enqueue %d after the worker exited: %v, want errTerminated", i, err)
		}
		check(s, "enqueue after exit")
	}
	for i := 0; i < 50; i++ {
		s := newSession(srv, hello, &countSink{samples: []int{0}}, tn)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 32; k++ {
					if err := s.enqueue(frame, time.Second); err != nil {
						return
					}
				}
			}()
		}
		s.step(event{kind: evShed, reason: "shed"})
		s.discardQueue()
		wg.Wait()
		check(s, "enqueues racing the ending")
	}
}
