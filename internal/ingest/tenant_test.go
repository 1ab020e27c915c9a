package ingest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTenantTableReserveCommitRelease(t *testing.T) {
	tbl := NewTenantTable(TenantQuota{MaxSessions: 2})

	a1, msg := tbl.reserve("a")
	if msg != "" {
		t.Fatalf("first reserve rejected: %s", msg)
	}
	a2, msg := tbl.reserve("a")
	if msg != "" {
		t.Fatalf("second reserve rejected: %s", msg)
	}
	// Reservations count against the quota even before commit — that is the
	// whole point of reserving.
	if _, msg := tbl.reserve("a"); !strings.Contains(msg, "session quota") {
		t.Fatalf("third reserve: got %q, want session quota rejection", msg)
	}
	if tbl.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", tbl.Rejected())
	}
	// Another tenant is unaffected.
	b1, msg := tbl.reserve("b")
	if msg != "" {
		t.Fatalf("tenant b rejected: %s", msg)
	}

	tbl.commit(a1)
	if tbl.Sessions("a") != 1 {
		t.Fatalf("Sessions(a) = %d after one commit, want 1", tbl.Sessions("a"))
	}
	// A failed admission hands its slot back.
	tbl.release(a2, false)
	a3, msg := tbl.reserve("a")
	if msg != "" {
		t.Fatalf("reserve after release rejected: %s", msg)
	}
	tbl.release(a3, false)

	// Releasing the last admitted session garbage-collects the tenant.
	tbl.release(a1, true)
	tbl.release(b1, false)
	tbl.mu.Lock()
	n := len(tbl.tenants)
	tbl.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d tenants retained after all released, want 0", n)
	}

	// Per-tenant overrides beat the default.
	tbl.SetQuota("vip", TenantQuota{})
	for i := 0; i < 5; i++ {
		if _, msg := tbl.reserve("vip"); msg != "" {
			t.Fatalf("vip reserve %d rejected: %s", i, msg)
		}
	}
}

// blockAfterFactory lets the first `pass` Acquires through immediately and
// parks every later one on gate — the window in which the server's lock is
// dropped, held open for as long as the test needs.
type blockAfterFactory struct {
	gate chan struct{}
	pass int

	mu       sync.Mutex
	acquired int
	released int
	sinkGate chan struct{}
}

func (f *blockAfterFactory) Acquire(hello *Frame) (Sink, error) {
	f.mu.Lock()
	n := f.acquired
	f.acquired++
	f.mu.Unlock()
	if n >= f.pass {
		<-f.gate
	}
	return &countSink{gate: f.sinkGate, samples: make([]int, len(hello.Channels))}, nil
}

func (f *blockAfterFactory) Release(Sink) {
	f.mu.Lock()
	f.released++
	f.mu.Unlock()
}

func helloFrame(id, tenant string) *Frame {
	return &Frame{Type: FrameHello, SessionID: id, Tenant: tenant,
		Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 100}}}
}

// TestAdmitBurstRespectsTenantQuota is the over-admission regression: a
// burst of Hellos arriving while every factory acquire is still in flight
// must admit exactly MaxSessions sessions, because the quota slot is
// reserved before the lock is dropped. Before the fix, every handler in the
// burst read the same pre-burst count and all of them were admitted. Run
// under -race.
func TestAdmitBurstRespectsTenantQuota(t *testing.T) {
	f := &blockAfterFactory{gate: make(chan struct{})}
	srv, err := NewServer(Config{Factory: f, Tenants: NewTenantTable(TenantQuota{MaxSessions: 2})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	const burst = 8
	results := make(chan string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, reject := srv.admit(helloFrame(fmt.Sprintf("burst-%d", i), "plant-a"))
			results <- reject
		}(i)
	}
	// Two Hellos hold reservations and sit in the blocked acquire; the other
	// six must already be rejected over quota while those are in flight.
	waitFor(t, 5*time.Second, func() bool { return len(results) == burst-2 })
	close(f.gate)
	wg.Wait()
	close(results)

	admitted, quotaRejected := 0, 0
	for reject := range results {
		switch {
		case reject == "":
			admitted++
		case strings.Contains(reject, "session quota"):
			quotaRejected++
		default:
			t.Errorf("unexpected rejection: %s", reject)
		}
	}
	if admitted != 2 || quotaRejected != 6 {
		t.Fatalf("admitted %d / quota-rejected %d, want 2 / 6", admitted, quotaRejected)
	}
	if n := srv.tenants.Sessions("plant-a"); n != 2 {
		t.Fatalf("tenant has %d sessions, want 2", n)
	}
}

// TestAdmitRechecksWatermarkAfterAcquire: a Hello whose factory acquire was
// in flight when the server saturated must not be admitted on the strength
// of the pre-acquire check. The depth is re-read under the lock after the
// acquire returns.
func TestAdmitRechecksWatermarkAfterAcquire(t *testing.T) {
	f := &blockAfterFactory{gate: make(chan struct{}), pass: 1, sinkGate: make(chan struct{})}
	var sinkOnce sync.Once
	openSink := func() { sinkOnce.Do(func() { close(f.sinkGate) }) }
	srv, err := NewServer(Config{Factory: f, QueueDepth: 16, ShedWatermark: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	t.Cleanup(openSink) // LIFO: un-stall the worker before Shutdown drains it

	s1, reject := srv.admit(helloFrame("first", ""))
	if reject != "" {
		t.Fatalf("first admit rejected: %s", reject)
	}
	rejectCh := make(chan string, 1)
	go func() {
		_, reject := srv.admit(helloFrame("second", ""))
		rejectCh <- reject
	}()
	// Wait until the second admit is parked inside the factory, its
	// pre-acquire watermark check already passed against an empty queue.
	waitFor(t, 5*time.Second, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.acquired == 2
	})
	// Now saturate: the gated sink keeps the worker busy on the first frame
	// while the rest pile up past the watermark.
	for i := 0; i < 6; i++ {
		if err := s1.enqueue(queued{f: &Frame{Type: FrameData, Channel: 0, Seq: uint64(i * 10), Values: make([]float64, 10)}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return srv.QueuedFrames() >= srv.cfg.ShedWatermark })
	close(f.gate)
	reject = <-rejectCh
	if !strings.Contains(reject, "overloaded") {
		t.Fatalf("second admit: got %q, want overload rejection", reject)
	}
	openSink()
}

// TestTenantQuotaSessions drives MaxSessions over the wire: the third
// session of a tenant is refused while two are live, an unrelated tenant is
// untouched, and finishing one session frees the slot.
func TestTenantQuotaSessions(t *testing.T) {
	addr, srv := startServer(t, Config{Factory: &countFactory{}, Tenants: NewTenantTable(TenantQuota{MaxSessions: 2})})
	hello := func(id, tenant string) Hello {
		h := oneChanHello(id, 1)
		h.Tenant = tenant
		return h
	}
	a1, err := Dial(addr, hello("a1", "plant-a"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := Dial(addr, hello("a2", "plant-a"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()

	var se *ServerError
	if _, err := Dial(addr, hello("a3", "plant-a"), 5*time.Second); !errors.As(err, &se) || !strings.Contains(se.Msg, "session quota") {
		t.Fatalf("third session: got %v, want session-quota ServerError", err)
	}
	b1, err := Dial(addr, hello("b1", "plant-b"), 5*time.Second)
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	defer b1.Close()

	// Finishing a session returns its slot.
	if err := a1.SendEOS(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a1.Finish(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.tenants.Sessions("plant-a") == 1 })
	a3, err := Dial(addr, hello("a3", "plant-a"), 5*time.Second)
	if err != nil {
		t.Fatalf("session after slot freed: %v", err)
	}
	a3.Close()
}

// TestTenantQuotaQueuedFrames: once a tenant's sessions hold MaxQueuedFrames
// in their queues, new sessions from that tenant are refused at admission —
// but other tenants, and the tenant's existing sessions, are untouched.
func TestTenantQuotaQueuedFrames(t *testing.T) {
	f := &countFactory{gate: make(chan struct{})}
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(f.gate) }) }
	t.Cleanup(openGate)
	addr, srv := startServer(t, Config{
		Factory: f, QueueDepth: 16, ShedWatermark: 1 << 20,
		Tenants: NewTenantTable(TenantQuota{MaxQueuedFrames: 4}),
	})
	hello := func(id, tenant string) Hello {
		h := oneChanHello(id, 1)
		h.Tenant = tenant
		return h
	}
	a1, err := Dial(addr, hello("a1", "plant-a"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	for i := 0; i < 6; i++ {
		if err := a1.SendData(0, uint64(i*10), make([]float64, 10)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return srv.tenants.QueuedFrames("plant-a") >= 4 })

	var se *ServerError
	if _, err := Dial(addr, hello("a2", "plant-a"), 5*time.Second); !errors.As(err, &se) || !strings.Contains(se.Msg, "queued-frame quota") {
		t.Fatalf("backlogged tenant: got %v, want queued-frame-quota ServerError", err)
	}
	b1, err := Dial(addr, hello("b1", "plant-b"), 5*time.Second)
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	b1.Close()

	openGate()
	if err := a1.SendEOS(0, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := a1.Finish(10 * time.Second); err != nil {
		t.Fatalf("backlogged session finish: %v", err)
	}
}

// TestResumeLayoutValidation is the resume-hello regression: a reconnecting
// Hello with the same channel *count* but a different name, lane count, or
// rate — or a different tenant — must be rejected, and the honest layout
// must still resume. Before the fix only the count was checked.
func TestResumeLayoutValidation(t *testing.T) {
	f := &countFactory{}
	addr, srv := startServer(t, Config{Factory: f, ReadTimeout: 10 * time.Second, Retention: time.Minute})
	h := oneChanHello("layout", 1)
	h.Tenant = "plant-a"
	c, err := Dial(addr, h, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendData(0, 0, make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	c.Close() // detach; session retained for resume

	waitFor(t, 5*time.Second, func() bool {
		srv.mu.Lock()
		s := srv.sessions["layout"]
		srv.mu.Unlock()
		return s != nil && s.current() == detached
	})

	var se *ServerError
	for name, bad := range map[string]Hello{
		"wrong name":   {SessionID: "layout", Tenant: "plant-a", Channels: []ChannelSpec{{Name: "Y", Lanes: 1, Rate: 100}}},
		"wrong lanes":  {SessionID: "layout", Tenant: "plant-a", Channels: []ChannelSpec{{Name: "X", Lanes: 2, Rate: 100}}},
		"wrong rate":   {SessionID: "layout", Tenant: "plant-a", Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 200}}},
		"extra chan":   {SessionID: "layout", Tenant: "plant-a", Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 100}, {Name: "Y", Lanes: 1, Rate: 100}}},
		"wrong tenant": {SessionID: "layout", Tenant: "plant-b", Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 100}}},
	} {
		_, err := Dial(addr, bad, 5*time.Second)
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "mismatch") {
			t.Errorf("%s: got %v, want mismatch ServerError", name, err)
		}
	}

	// The honest layout still resumes and completes.
	var rc *Client
	waitFor(t, 5*time.Second, func() bool {
		rc, err = Dial(addr, h, time.Second)
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
	if err := rc.SendEOS(0, 10); err != nil {
		t.Fatal(err)
	}
	v, err := rc.Finish(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Reason != "finished" {
		t.Errorf("verdict reason %q, want finished", v.Reason)
	}
}
