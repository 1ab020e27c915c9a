package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/obs"
	"nsync/internal/sigproc"
)

// ---- trained fixture, built once and shared across the E2E tests ----

// e2eFixture holds a trained two-channel detection configuration: a
// two-lane "ACC" and a one-lane "MAG", both at 100 Hz, with thresholds
// learned from seeded benign runs.
type e2eFixture struct {
	specs []ChannelSpec
	chans []core.FusedMonitorChannel
	refs  []*sigproc.Signal
}

var (
	e2eOnce sync.Once
	e2eFx   *e2eFixture
	e2eErr  error
)

func e2eParams() dwm.Params {
	return dwm.Params{TWin: 0.5, THop: 0.25, TExt: 0.2, TSigma: 0.1, Eta: 0.1}
}

// noiseML builds an n-sample multi-lane white-noise signal.
func noiseML(rng *rand.Rand, rate float64, lanes, n int) *sigproc.Signal {
	s := sigproc.New(rate, lanes, n)
	for l := 0; l < lanes; l++ {
		for i := 0; i < n; i++ {
			s.Data[l][i] = rng.NormFloat64()
		}
	}
	return s
}

// perturbed is a benign observation of ref: the same print with small
// amplitude noise on every lane.
func perturbed(rng *rand.Rand, ref *sigproc.Signal) *sigproc.Signal {
	s := ref.Clone()
	for l := range s.Data {
		for i := range s.Data[l] {
			s.Data[l][i] += 0.05 * rng.NormFloat64()
		}
	}
	return s
}

// attacked is a benign observation whose second half is replaced by
// uncorrelated 2-sigma noise — the print deviates from the reference
// mid-way, as a substituted design would.
func attacked(rng *rand.Rand, ref *sigproc.Signal) *sigproc.Signal {
	s := perturbed(rng, ref)
	for l := range s.Data {
		for i := s.Len() / 2; i < s.Len(); i++ {
			s.Data[l][i] = 2 * rng.NormFloat64()
		}
	}
	return s
}

func newE2EFixture() (*e2eFixture, error) {
	rng := rand.New(rand.NewSource(7))
	fx := &e2eFixture{}
	layout := []struct {
		name  string
		lanes int
	}{{"ACC", 2}, {"MAG", 1}}
	for _, ch := range layout {
		ref := noiseML(rng, 100, ch.lanes, 2000)
		det, err := core.NewDetector(ref, core.Config{
			Sync: &core.DWMSynchronizer{Params: e2eParams()},
			OCC:  core.OCCConfig{R: 0.3},
		})
		if err != nil {
			return nil, err
		}
		var train []*sigproc.Signal
		for i := 0; i < 4; i++ {
			train = append(train, perturbed(rng, ref))
		}
		if err := det.Train(train); err != nil {
			return nil, err
		}
		th, err := det.Thresholds()
		if err != nil {
			return nil, err
		}
		fx.refs = append(fx.refs, ref)
		fx.chans = append(fx.chans, core.FusedMonitorChannel{
			Name: ch.name, Reference: ref, Params: e2eParams(), Thresholds: th,
		})
		fx.specs = append(fx.specs, ChannelSpec{Name: ch.name, Lanes: ch.lanes, Rate: ref.Rate})
	}
	return fx, nil
}

func fixture(t *testing.T) *e2eFixture {
	t.Helper()
	e2eOnce.Do(func() { e2eFx, e2eErr = newE2EFixture() })
	if e2eErr != nil {
		t.Fatalf("fixture: %v", e2eErr)
	}
	return e2eFx
}

func (fx *e2eFixture) pool(k int) *MonitorPool {
	return &MonitorPool{
		Build: func() (*core.FusedMonitor, error) {
			return core.NewFusedMonitor(fx.chans, core.FusedConfig{K: k})
		},
		Channels: fx.specs,
	}
}

// inProcessVerdict is the ground truth: the same runs pushed straight into
// a fused monitor with no wire, no defects, then flushed.
func (fx *e2eFixture) inProcessVerdict(t *testing.T, k int, runs []*sigproc.Signal) bool {
	t.Helper()
	fm, err := core.NewFusedMonitor(fx.chans, core.FusedConfig{K: k})
	if err != nil {
		t.Fatal(err)
	}
	clones := make([]*sigproc.Signal, len(runs))
	for i, r := range runs {
		clones[i] = r.Clone()
	}
	if _, err := fm.Push(clones); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Flush(); err != nil {
		t.Fatal(err)
	}
	return fm.Intrusion()
}

// startServer serves on a loopback listener and shuts down at cleanup.
func startServer(t *testing.T, cfg Config) (addr string, srv *Server) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
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
	return l.Addr().String(), srv
}

func (fx *e2eFixture) hello(id string, priority int) Hello {
	return Hello{SessionID: id, Priority: priority, Channels: fx.specs}
}

// TestE2EVerdictEquivalence is the paper-level acceptance test for the
// ingest layer: a stream mangled by lossless transport defects — seeded
// reordering, duplication, and forced mid-print reconnects — must produce
// exactly the verdict the detection core gives the clean stream in process.
func TestE2EVerdictEquivalence(t *testing.T) {
	fx := fixture(t)
	addr, _ := startServer(t, Config{Factory: fx.pool(1), ReadTimeout: 20 * time.Second})
	for _, tc := range []struct {
		name string
		seed int64
		mk   func(*rand.Rand, *sigproc.Signal) *sigproc.Signal
	}{
		{"benign", 21, perturbed},
		{"malicious", 22, attacked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			runs := []*sigproc.Signal{tc.mk(rng, fx.refs[0]), tc.mk(rng, fx.refs[1])}
			want := fx.inProcessVerdict(t, 1, runs)

			// Scheduled reconnects spend the dial budget too, and each resume
			// re-sends the frames the server had not yet committed, so a slow
			// server (under -race) triggers more of them than the default
			// budget of 8 covers. The budget is not what this test checks.
			v, err := Replay(addr, fx.hello("equiv-"+tc.name, 100), runs, ReplayOptions{
				FrameSamples: 64, Seed: tc.seed,
				ShuffleWindow: 6, DupProb: 0.15, ReconnectAfter: 17, MaxDials: 64,
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if v.Intrusion != want {
				t.Fatalf("wire verdict %v, in-process verdict %v", v.Intrusion, want)
			}
			if tc.name == "malicious" {
				if !v.Intrusion {
					t.Fatal("malicious run not detected through the wire")
				}
				if len(v.Alerts) == 0 {
					t.Error("intrusion verdict carries no alerts")
				}
			}
			for _, ch := range v.Channels {
				if ch.Quarantined {
					t.Errorf("lossless defects quarantined channel %s (%s)", ch.Name, ch.Health)
				}
			}
		})
	}
}

// TestE2EDeadChannelDegrades kills one sensor mid-print (data stops at half
// the stream, EOS still declares the full extent): the gap fill must drive
// that channel into health quarantine, not into false votes, and the
// remaining channel must keep the verdict correct either way.
func TestE2EDeadChannelDegrades(t *testing.T) {
	fx := fixture(t)
	addr, _ := startServer(t, Config{Factory: fx.pool(1), ReadTimeout: 20 * time.Second})
	for _, tc := range []struct {
		name string
		seed int64
		mk   func(*rand.Rand, *sigproc.Signal) *sigproc.Signal
		want bool
	}{
		{"benign", 31, perturbed, false},
		{"malicious", 32, attacked, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			runs := []*sigproc.Signal{perturbed(rng, fx.refs[0]), tc.mk(rng, fx.refs[1])}
			v, err := Replay(addr, fx.hello("dead-"+tc.name, 100), runs, ReplayOptions{
				FrameSamples: 64, Seed: tc.seed, CutChannels: []int{0},
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if v.Intrusion != tc.want {
				t.Fatalf("verdict %v, want %v (channels: %+v)", v.Intrusion, tc.want, v.Channels)
			}
			dead := v.Channels[0]
			if !dead.Quarantined {
				t.Errorf("cut channel not quarantined: %+v", dead)
			}
			if dead.Health != "flat" {
				t.Errorf("cut channel health %q, want flat (stuck-at gap fill)", dead.Health)
			}
			if dead.Voting {
				t.Error("quarantined channel still voting")
			}
		})
	}
}

// ---- overload and lifecycle tests (no trained core needed) ----

// countSink counts pushed samples per channel; gate, when set, blocks every
// push until it closes, simulating an arbitrarily slow detection pipeline.
type countSink struct {
	gate    <-chan struct{}
	samples []int
}

func (s *countSink) Push(ch int, values []float64) error {
	if s.gate != nil {
		<-s.gate
	}
	if ch >= 0 && ch < len(s.samples) {
		s.samples[ch] += len(values)
	}
	return nil
}

func (s *countSink) Finish(reason string) (*Verdict, error) {
	return &Verdict{Reason: reason}, nil
}

type countFactory struct {
	gate chan struct{}

	mu    sync.Mutex
	sinks []*countSink
}

func (f *countFactory) Acquire(hello *Frame) (Sink, error) {
	s := &countSink{gate: f.gate, samples: make([]int, len(hello.Channels))}
	f.mu.Lock()
	f.sinks = append(f.sinks, s)
	f.mu.Unlock()
	return s, nil
}

func (f *countFactory) Release(Sink) {}

func oneChanHello(id string, priority int) Hello {
	return Hello{SessionID: id, Priority: priority, Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 100}}}
}

// TestServerOverloadSheds drives the queue depth over the watermark with a
// stalled pipeline and asserts the full load-shedding contract: the
// lowest-priority session is shed first, new sessions are refused at
// admission, the shed metric moves, and the surviving high-priority session
// still completes correctly once the stall clears.
func TestServerOverloadSheds(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	shed0 := metShed.Value()

	f := &countFactory{gate: make(chan struct{})}
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(f.gate) }) }
	t.Cleanup(openGate)

	addr, srv := startServer(t, Config{
		Factory: f, QueueDepth: 8, ShedWatermark: 4,
		ReadTimeout: 10 * time.Second, EnqueueTimeout: 10 * time.Second,
	})

	hi, err := Dial(addr, oneChanHello("hi", 10), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer hi.Close()
	lo, err := Dial(addr, oneChanHello("lo", 1), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer lo.Close()

	// The pipeline is gated shut, so these frames pile up in the queue and
	// push the aggregate depth over the watermark.
	vals := make([]float64, 10)
	for i := 0; i < 8; i++ {
		if err := hi.SendData(0, uint64(i*10), vals); err != nil {
			t.Fatal(err)
		}
	}

	// Crossing the watermark sheds the lowest-priority session: lo's next
	// server contact is the shed notice.
	_, err = lo.AwaitVerdict(10 * time.Second)
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "shed") {
		t.Fatalf("low-priority session: got %v, want shed ServerError", err)
	}

	// While depth stays over the watermark, admission refuses new sessions.
	if _, err := Dial(addr, oneChanHello("late", 50), 5*time.Second); err == nil {
		t.Fatal("new session admitted during overload")
	} else if !errors.As(err, &se) || !strings.Contains(se.Msg, "overloaded") {
		t.Fatalf("new session: got %v, want overloaded ServerError", err)
	}
	if srv.QueuedFrames() == 0 {
		t.Error("queue depth reads zero at peak overload")
	}
	if metShed.Value() <= shed0 {
		t.Errorf("ingest.shed did not move: %d -> %d", shed0, metShed.Value())
	}

	// Un-stall the pipeline: the surviving session drains and finishes with
	// every sample accounted for.
	openGate()
	if err := hi.SendEOS(0, 80); err != nil {
		t.Fatal(err)
	}
	v, err := hi.Finish(10 * time.Second)
	if err != nil {
		t.Fatalf("high-priority finish: %v", err)
	}
	if v.Reason != "finished" {
		t.Errorf("verdict reason %q, want finished", v.Reason)
	}
	f.mu.Lock()
	hiSink := f.sinks[0]
	f.mu.Unlock()
	if hiSink.samples[0] != 80 {
		t.Errorf("surviving session delivered %d samples, want 80", hiSink.samples[0])
	}
}

// TestServerShutdownDrains covers the SIGTERM path: Shutdown must flush both
// an attached session (its client receives the final verdict unasked) and a
// detached one (flushed with no connection at all), then let Serve return
// nil — and leave no session or worker behind.
func TestServerShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	f := &countFactory{}
	srv, err := NewServer(Config{Factory: f, ReadTimeout: 10 * time.Second, Retention: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	addr := l.Addr().String()

	vals := make([]float64, 10)
	attachedC, err := Dial(addr, oneChanHello("attached", 1), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer attachedC.Close()
	for i := 0; i < 3; i++ {
		if err := attachedC.SendData(0, uint64(i*10), vals); err != nil {
			t.Fatal(err)
		}
	}

	detachedC, err := Dial(addr, oneChanHello("detached", 1), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := detachedC.SendData(0, 0, vals); err != nil {
		t.Fatal(err)
	}
	detachedC.Close() // connection gone, session retained for resume

	// Wait until the server actually saw the detach — otherwise this would
	// only exercise the attached path twice.
	waitFor(t, 2*time.Second, func() bool {
		srv.mu.Lock()
		s := srv.sessions["detached"]
		srv.mu.Unlock()
		if s == nil {
			return false
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.conn == nil
	})
	if n := srv.SessionCount(); n != 2 {
		t.Fatalf("SessionCount() = %d before drain, want 2", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	v, err := attachedC.AwaitVerdict(10 * time.Second)
	if err != nil {
		t.Fatalf("attached client: %v", err)
	}
	if v.Reason != "drained" {
		t.Errorf("drain verdict reason %q, want drained", v.Reason)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve after drain: %v", err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("%d sessions survive shutdown", n)
	}
	// Every worker and handler must be gone: the drain is complete, not
	// abandoned.
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// TestServerEvictsSilentSession: a client that connects and goes quiet past
// the read deadline is evicted, and told so.
func TestServerEvictsSilentSession(t *testing.T) {
	addr, _ := startServer(t, Config{Factory: &countFactory{}, ReadTimeout: 100 * time.Millisecond})
	c, err := Dial(addr, oneChanHello("quiet", 1), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.AwaitVerdict(5 * time.Second)
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "evicted") {
		t.Fatalf("got %v, want eviction ServerError", err)
	}
}

// TestServerMalformedDetachesThenResumes: a protocol violation mid-stream
// costs the connection, not the session — the client is told what broke,
// reconnects under the same id, resumes from the committed count, and still
// gets a complete verdict.
func TestServerMalformedDetachesThenResumes(t *testing.T) {
	f := &countFactory{}
	addr, _ := startServer(t, Config{Factory: f, ReadTimeout: 10 * time.Second, Retention: time.Minute})
	c, err := Dial(addr, oneChanHello("resume", 1), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 10)
	if err := c.SendData(0, 0, vals); err != nil {
		t.Fatal(err)
	}
	// Now violate the protocol: a frame with a bogus version byte.
	if _, err := c.conn.Write([]byte{0, 0, 0, 2, 99, 3}); err != nil {
		t.Fatal(err)
	}
	_, err = c.AwaitVerdict(5 * time.Second)
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "malformed") {
		t.Fatalf("got %v, want malformed ServerError", err)
	}
	c.Close()

	// Reconnect under the same id: the HelloAck reports the commit point.
	// The worker commits asynchronously, so poll until it shows up.
	var rc *Client
	waitFor(t, 5*time.Second, func() bool {
		rc, err = Dial(addr, oneChanHello("resume", 1), time.Second)
		if err != nil {
			return false
		}
		if len(rc.Committed) == 1 && rc.Committed[0] == 10 {
			return true
		}
		rc.Close()
		return false
	})
	defer rc.Close()
	if err := rc.SendData(0, 10, vals); err != nil {
		t.Fatal(err)
	}
	if err := rc.SendEOS(0, 20); err != nil {
		t.Fatal(err)
	}
	v, err := rc.Finish(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Reason != "finished" {
		t.Errorf("verdict reason %q, want finished", v.Reason)
	}
	f.mu.Lock()
	sink := f.sinks[0]
	f.mu.Unlock()
	if sink.samples[0] != 20 {
		t.Errorf("sink got %d samples across the reconnect, want 20", sink.samples[0])
	}
}

// TestServerChaosSoak hammers one server with concurrent sessions mixing
// every defect the layer handles — reordering, duplication, loss, forced
// reconnects, torn connections, malformed frames — and requires the server
// to keep completing honest sessions and drain cleanly afterward.
func TestServerChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	f := &countFactory{}
	addr, _ := startServer(t, Config{
		Factory: f, ReadTimeout: 10 * time.Second, Retention: 30 * time.Second,
		QueueDepth: 16, ShedWatermark: 1 << 20, // chaos here, shedding tested elsewhere
	})
	const sessions = 12
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			id := fmt.Sprintf("chaos-%d", i)
			switch i % 4 {
			case 0: // clean-ish stream with lossless defects
				sig := noiseML(rng, 100, 1, 600)
				v, err := Replay(addr, oneChanHello(id, i), []*sigproc.Signal{sig}, ReplayOptions{
					FrameSamples: 40, Seed: int64(i), ShuffleWindow: 5, DupProb: 0.2, ReconnectAfter: 7,
				})
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", id, err)
				} else if v.Reason != "finished" {
					errCh <- fmt.Errorf("%s: reason %q", id, v.Reason)
				}
			case 1: // lossy stream: drops are repaired by gap fill
				sig := noiseML(rng, 100, 2, 500)
				h := Hello{SessionID: id, Priority: i, Channels: []ChannelSpec{{Name: "X", Lanes: 2, Rate: 100}}}
				if _, err := Replay(addr, h, []*sigproc.Signal{sig}, ReplayOptions{
					FrameSamples: 25, Seed: int64(i), DropProb: 0.15, ShuffleWindow: 4,
				}); err != nil {
					errCh <- fmt.Errorf("%s: %w", id, err)
				}
			case 2: // torn connection mid-frame, then abandon
				c, err := Dial(addr, oneChanHello(id, i), 5*time.Second)
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", id, err)
					return
				}
				c.SendData(0, 0, make([]float64, 20)) //nolint:errcheck // chaos
				c.conn.Write([]byte{0, 0, 0, 200, Version, 3, 1})
				c.Close()
			case 3: // malformed garbage after handshake
				c, err := Dial(addr, oneChanHello(id, i), 5*time.Second)
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", id, err)
					return
				}
				c.conn.Write([]byte{0, 0, 0, 3, 77, 77, 77})
				c.AwaitVerdict(5 * time.Second) //nolint:errcheck // server may close first
				c.Close()
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// The server must still serve honest work after the abuse.
	sig := noiseML(rand.New(rand.NewSource(99)), 100, 1, 300)
	v, err := Replay(addr, oneChanHello("after-chaos", 100), []*sigproc.Signal{sig}, ReplayOptions{FrameSamples: 50})
	if err != nil {
		t.Fatalf("post-chaos session: %v", err)
	}
	if v.Reason != "finished" {
		t.Errorf("post-chaos reason %q", v.Reason)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
