package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type fakeSink struct {
	id        string
	pushes    int
	finished  bool
	intrusion bool
	pushErr   error
	finishErr error
}

func (s *fakeSink) Push(ch int, values []float64) error {
	s.pushes++
	return s.pushErr
}

func (s *fakeSink) Finish(reason string) (*Verdict, error) {
	s.finished = true
	if s.finishErr != nil {
		return nil, s.finishErr
	}
	return &Verdict{Intrusion: s.intrusion, Reason: s.id}, nil
}

type fakeFactory struct {
	name       string
	intrusion  bool
	acquireErr error

	mu       sync.Mutex
	acquired int
	released []Sink
}

func (f *fakeFactory) Acquire(hello *Frame) (Sink, error) {
	if f.acquireErr != nil {
		return nil, f.acquireErr
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acquired++
	return &fakeSink{id: fmt.Sprintf("%s-%d", f.name, f.acquired), intrusion: f.intrusion}, nil
}

func (f *fakeFactory) Release(s Sink) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.released = append(f.released, s)
}

func testHello() *Frame {
	return &Frame{Type: FrameHello, SessionID: "s", Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 100}}}
}

func TestShadowTeesAndReportsBothVerdicts(t *testing.T) {
	p := &fakeFactory{name: "p"}
	c := &fakeFactory{name: "c", intrusion: true}
	sw := NewSwapFactory(p)

	var gotP, gotS *Verdict
	sw.SetShadow(c, false, func(pv, sv *Verdict) { gotP, gotS = pv, sv })
	s, err := sw.Acquire(testHello())
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := s.(*shadowSink)
	if !ok {
		t.Fatalf("got %T, want *shadowSink", s)
	}
	if err := s.Push(0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if ss.primary.(*fakeSink).pushes != 1 || ss.shadow.(*fakeSink).pushes != 1 {
		t.Fatal("push not teed to both sinks")
	}
	v, err := s.Finish("eof")
	if err != nil {
		t.Fatal(err)
	}
	// Shadow (serve=false): the primary verdict is authoritative.
	if v.Intrusion || v.Reason != "p-1" {
		t.Fatalf("verdict = %+v, want primary's", v)
	}
	if gotP == nil || gotS == nil || gotP.Intrusion || !gotS.Intrusion {
		t.Fatalf("onVerdict got %+v / %+v", gotP, gotS)
	}
	sw.Release(s)
	if len(p.released) != 1 || len(c.released) != 1 {
		t.Fatal("shadow session not released to both origins")
	}

	// Canary (serve=true): the shadow verdict is authoritative; both still run.
	sw.SetServe(true)
	s, err = sw.Acquire(testHello())
	if err != nil {
		t.Fatal(err)
	}
	v, err = s.Finish("eof")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Intrusion || v.Reason != "c-2" {
		t.Fatalf("canary verdict = %+v, want shadow's", v)
	}

	// ClearShadow: new sessions get the primary's sink, unwrapped.
	sw.ClearShadow()
	s, err = sw.Acquire(testHello())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*fakeSink); !ok {
		t.Fatalf("after ClearShadow got %T, want the primary's *fakeSink", s)
	}
}

// TestShadowFailuresNeverCostTheSession covers both degradation paths: a
// shadow factory that cannot admit the session, and a shadow sink that
// errors mid-stream. In both cases the session runs to a primary verdict.
func TestShadowFailuresNeverCostTheSession(t *testing.T) {
	p := &fakeFactory{name: "p"}
	sw := NewSwapFactory(p)
	sw.SetShadow(&fakeFactory{name: "c", acquireErr: errors.New("layout mismatch")}, false, nil)
	s, err := sw.Acquire(testHello())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*fakeSink); !ok {
		t.Fatalf("degraded session is %T, want the primary's *fakeSink", s)
	}
	sw.Release(s)

	// Mid-stream shadow failure: the shadow is dropped, the session finishes.
	called := false
	c := &fakeFactory{name: "c"}
	sw.SetShadow(c, true, func(pv, sv *Verdict) { called = true })
	s, err = sw.Acquire(testHello())
	if err != nil {
		t.Fatal(err)
	}
	ss := s.(*shadowSink)
	ss.shadow.(*fakeSink).pushErr = errors.New("boom")
	if err := s.Push(0, []float64{1}); err != nil {
		t.Fatalf("shadow failure leaked into the session: %v", err)
	}
	if err := s.Push(0, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if ss.shadow.(*fakeSink).pushes != 1 {
		t.Fatal("dead shadow still being pushed")
	}
	v, err := s.Finish("eof")
	if err != nil {
		t.Fatal(err)
	}
	// Even in serve mode, a dead shadow yields no verdict: primary rules.
	if v.Reason != "p-2" {
		t.Fatalf("verdict = %+v, want primary's", v)
	}
	if called {
		t.Fatal("onVerdict called without a shadow verdict")
	}
	if ss.shadow.(*fakeSink).finished {
		t.Fatal("dead shadow sink was finished")
	}
	sw.Release(s)
	if len(c.released) != 1 {
		t.Fatal("dead shadow sink not released to its origin")
	}
}

// TestSwapUnderLoad hammers Acquire/Push/Finish/Release from many goroutines
// while those same goroutines keep rotating the shadow between two candidate
// factories, flipping it to canary, and clearing it. Run under -race; every
// session must complete with a verdict, and every factory must get back
// exactly the sinks it handed out. A shadow sink released to whichever
// shadow is installed at release time, instead of the one that built it,
// fails the per-factory checks even when the totals still balance.
func TestSwapUnderLoad(t *testing.T) {
	primary := &fakeFactory{name: "p"}
	shadows := []*fakeFactory{{name: "c0"}, {name: "c1"}}
	sw := NewSwapFactory(primary)
	// churn advances the rotation one step: install the next candidate
	// (every other one straight as canary), flip it to canary, clear it.
	// Workers churn while their own sessions are in flight, so a session's
	// shadow has usually moved on by the time it is released.
	var step atomic.Int64
	churn := func() {
		i := int(step.Add(1))
		switch i % 3 {
		case 0:
			sw.SetShadow(shadows[(i/3)%len(shadows)], i%2 == 0, func(pv, sv *Verdict) {})
		case 1:
			sw.SetServe(true)
		case 2:
			sw.ClearShadow()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				churn()
				s, err := sw.Acquire(testHello())
				if err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				for j := 0; j < 4; j++ {
					if err := s.Push(0, []float64{1}); err != nil {
						t.Errorf("Push: %v", err)
						return
					}
					churn()
					runtime.Gosched()
				}
				if v, err := s.Finish("eof"); err != nil || v == nil {
					t.Errorf("Finish: %+v, %v", v, err)
					return
				}
				sw.Release(s)
			}
		}()
	}
	wg.Wait()
	for _, f := range append([]*fakeFactory{primary}, shadows...) {
		f.mu.Lock()
		acquired, released := f.acquired, f.released
		f.mu.Unlock()
		if acquired == 0 {
			t.Errorf("factory %s never acquired a sink; the rotation did not reach it", f.name)
		}
		if acquired != len(released) {
			t.Errorf("factory %s: acquired %d sinks, released %d", f.name, acquired, len(released))
		}
		for _, rs := range released {
			if id := rs.(*fakeSink).id; !strings.HasPrefix(id, f.name+"-") {
				t.Errorf("factory %s got back sink %s, which it did not build", f.name, id)
				break
			}
		}
	}
}
