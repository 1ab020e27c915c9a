package ingest

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsync/internal/registry"
	"nsync/internal/sigproc"
)

type fakeSink struct {
	id       string
	pushes   int
	finished bool
	pushErr  error
}

func (s *fakeSink) Push(ch int, values []float64) error {
	s.pushes++
	return s.pushErr
}

func (s *fakeSink) Finish(reason string) (*Verdict, error) {
	s.finished = true
	return &Verdict{Reason: s.id}, nil
}

// shadowPool registers the fixture at quorum 1 as the pool's pinned default
// and returns the pool with that version.
func shadowPool(t *testing.T) (*SharedPool, string) {
	t.Helper()
	pool := NewSharedPool(nil)
	v, err := pool.Register(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	return pool, v
}

// modelVersion is the content address of m.
func modelVersion(t *testing.T, m *registry.Model) string {
	t.Helper()
	v, err := m.Version()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// pushBenignChunk feeds a short all-zero chunk to every channel of s, enough
// to keep the monitors busy without a whole print.
func (fx *e2eFixture) pushBenignChunk(t *testing.T, s Sink) {
	t.Helper()
	for ch, spec := range fx.specs {
		if err := s.Push(ch, make([]float64, 32*spec.Lanes)); err != nil {
			t.Fatal(err)
		}
	}
}

// wantRefs checks the pool's reference count on each version.
func wantRefs(t *testing.T, pool *SharedPool, want map[string]int) {
	t.Helper()
	for v, n := range want {
		if got := pool.Refs(v); got != n {
			t.Errorf("Refs(%s) = %d, want %d", v, got, n)
		}
	}
}

// TestSharedPoolShadowTeesAndReportsBothVerdicts is the verdict-authority
// contract: in shadow mode the primary's verdict counts, in canary mode the
// candidate's does while the primary is still computed, onVerdict sees both
// either way, and each half of the tee goes back to its own entry.
func TestSharedPoolShadowTeesAndReportsBothVerdicts(t *testing.T) {
	fx := fixture(t)
	pool, v1 := shadowPool(t)
	cand := fixtureModel(t, 2)
	v2 := modelVersion(t, cand)

	var gotP, gotS *Verdict
	onVerdict := func(pv, sv *Verdict) { gotP, gotS = pv, sv }
	for _, serve := range []bool{false, true} {
		pool.SetShadow(cand, serve, onVerdict)
		wantRefs(t, pool, map[string]int{v1: 0, v2: 1}) // the slot's reference
		gotP, gotS = nil, nil
		s, err := pool.Acquire(fx.helloFrame("tee", ""))
		if err != nil {
			t.Fatal(err)
		}
		tee, ok := s.(*shadowSink)
		if !ok {
			t.Fatalf("serve=%v: got %T, want *shadowSink", serve, s)
		}
		if tee.primary.(*sharedSink).ModelVersion() != v1 || tee.shadow.(*sharedSink).ModelVersion() != v2 {
			t.Fatalf("serve=%v: tee halves are %s/%s, want %s/%s", serve,
				tee.primary.(*sharedSink).ModelVersion(), tee.shadow.(*sharedSink).ModelVersion(), v1, v2)
		}
		wantRefs(t, pool, map[string]int{v1: 1, v2: 2})
		fx.pushBenignChunk(t, s)
		v, err := s.Finish("eof")
		if err != nil {
			t.Fatal(err)
		}
		if gotP == nil || gotS == nil || gotP == gotS {
			t.Fatalf("serve=%v: onVerdict got %p / %p, want both verdicts", serve, gotP, gotS)
		}
		if want := map[bool]*Verdict{false: gotP, true: gotS}[serve]; v != want {
			t.Errorf("serve=%v: session verdict is not the %s's", serve, map[bool]string{false: "primary", true: "candidate"}[serve])
		}
		pool.Release(s)
		wantRefs(t, pool, map[string]int{v1: 0, v2: 1})
	}

	// A nil model clears the candidate: new sessions get a plain pool sink,
	// and the unpinned candidate leaves with the slot's reference.
	pool.SetShadow(nil, false, nil)
	s, err := pool.Acquire(fx.helloFrame("plain", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*sharedSink); !ok {
		t.Fatalf("after clearing the shadow got %T, want *sharedSink", s)
	}
	pool.Release(s)
	if models, refs := pool.Resident(); models != 1 || refs != 0 {
		t.Fatalf("Resident() = %d models / %d refs, want the pinned primary alone", models, refs)
	}
}

// TestSharedPoolShadowFailuresNeverCostTheSession covers both degradation
// paths: a candidate that cannot serve the session at admission (a channel
// layout other than the Hello's, a monitor that will not build) leaves it
// primary-only with no reference leaked, and a shadow sink that errors
// mid-stream is dropped while the session runs to the primary's verdict.
func TestSharedPoolShadowFailuresNeverCostTheSession(t *testing.T) {
	fx := fixture(t)
	pool, v1 := shadowPool(t)

	narrow := fixtureModel(t, 1)
	narrow.Channels = narrow.Channels[:1] // trained for ACC alone
	broken := fixtureModel(t, 1)
	for i := range broken.Channels {
		// Same layout as the Hello, but no reference to build a monitor from.
		ref := broken.Channels[i].Reference
		broken.Channels[i].Reference = sigproc.New(ref.Rate, ref.Channels(), 0)
	}
	for name, cand := range map[string]*registry.Model{"layout": narrow, "build": broken} {
		vc := modelVersion(t, cand)
		pool.SetShadow(cand, true, func(pv, sv *Verdict) { t.Errorf("%s: onVerdict called", name) })
		s, err := pool.Acquire(fx.helloFrame("degraded-"+name, ""))
		if err != nil {
			t.Fatalf("%s: candidate failure cost the session: %v", name, err)
		}
		if _, ok := s.(*sharedSink); !ok {
			t.Fatalf("%s: degraded session is %T, want the primary's *sharedSink", name, s)
		}
		wantRefs(t, pool, map[string]int{v1: 1, vc: 1})
		fx.pushBenignChunk(t, s)
		if _, err := s.Finish("eof"); err != nil {
			t.Fatal(err)
		}
		pool.Release(s)
	}
	pool.SetShadow(nil, false, nil)
	if models, refs := pool.Resident(); models != 1 || refs != 0 {
		t.Fatalf("Resident() = %d models / %d refs, want the pinned primary alone", models, refs)
	}

	// Mid-stream shadow failure, on the tee itself: the shadow is dropped,
	// the session finishes, and even in serve mode the primary rules.
	called := false
	primary := &fakeSink{id: "p"}
	shadow := &fakeSink{id: "c", pushErr: errors.New("boom")}
	tee := &shadowSink{primary: primary, shadow: shadow, serve: true, onVerdict: func(pv, sv *Verdict) { called = true }}
	if err := tee.Push(0, []float64{1}); err != nil {
		t.Fatalf("shadow failure leaked into the session: %v", err)
	}
	if err := tee.Push(0, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if primary.pushes != 2 || shadow.pushes != 1 {
		t.Fatalf("pushes: primary %d, dead shadow %d; want 2 and 1", primary.pushes, shadow.pushes)
	}
	v, err := tee.Finish("eof")
	if err != nil {
		t.Fatal(err)
	}
	if v.Reason != "p" {
		t.Fatalf("verdict = %+v, want the primary's", v)
	}
	if called {
		t.Fatal("onVerdict called without a shadow verdict")
	}
	if shadow.finished {
		t.Fatal("dead shadow sink was finished")
	}
}

// TestSharedPoolShadowUnderLoad hammers Acquire/Push/Finish/Release from
// many goroutines while those same goroutines keep rotating the candidate
// between two models over the primary, flipping it to canary, and clearing
// it. Run under -race; every session must complete with a verdict, both
// candidates must have judged sessions, and at the end every version must
// hold no reference and only the pinned primary may stay resident. A shadow
// half released to the wrong entry — say the candidate installed at release
// time — leaves some count off zero even when the totals balance.
func TestSharedPoolShadowUnderLoad(t *testing.T) {
	fx := fixture(t)
	pool, v1 := shadowPool(t)
	cands := []*registry.Model{fixtureModel(t, 2), fixtureModel(t, 3)}
	versions := []string{v1, modelVersion(t, cands[0]), modelVersion(t, cands[1])}
	var judged [2]atomic.Int64
	// churn advances the rotation one step: install the next candidate
	// (every other one straight as canary), flip it to canary, clear it.
	var step atomic.Int64
	churn := func() {
		i := int(step.Add(1))
		c := (i / 3) % len(cands)
		switch i % 3 {
		case 0:
			pool.SetShadow(cands[c], i%2 == 0, func(pv, sv *Verdict) { judged[c].Add(1) })
		case 1:
			pool.SetShadow(cands[c], true, func(pv, sv *Verdict) { judged[c].Add(1) })
		case 2:
			pool.SetShadow(nil, false, nil)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				churn()
				s, err := pool.Acquire(fx.helloFrame("churn", ""))
				if err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				for j := 0; j < 2; j++ {
					for ch, spec := range fx.specs {
						if err := s.Push(ch, make([]float64, 16*spec.Lanes)); err != nil {
							t.Errorf("Push: %v", err)
							return
						}
					}
					churn()
					runtime.Gosched()
				}
				if v, err := s.Finish("eof"); err != nil || v == nil {
					t.Errorf("Finish: %+v, %v", v, err)
					return
				}
				pool.Release(s)
			}
		}()
	}
	wg.Wait()
	pool.SetShadow(nil, false, nil)
	for c := range judged {
		if judged[c].Load() == 0 {
			t.Errorf("candidate %s judged no session; the rotation did not reach it", versions[c+1])
		}
	}
	wantRefs(t, pool, map[string]int{versions[0]: 0, versions[1]: 0, versions[2]: 0})
	if models, refs := pool.Resident(); models != 1 || refs != 0 {
		t.Fatalf("Resident() = %d models / %d refs after the soak, want the pinned primary alone", models, refs)
	}
}

// TestSharedPoolShadowJournalsPrimary: a session admitted under a canary
// journals and exports the primary's model version and monitor state — the
// Unwrap path — never the candidate's, which is evaluation-only.
func TestSharedPoolShadowJournalsPrimary(t *testing.T) {
	fx := fixture(t)
	pool, v1 := shadowPool(t)
	// A candidate stepping its windows differently, so its monitor state
	// drifts away from the primary's on the same stream.
	cand := fixtureModel(t, 1)
	for i := range cand.Channels {
		cand.Channels[i].Params.THop = 0.125
	}
	pool.SetShadow(cand, true, nil)
	j, _ := openTestJournal(t, t.TempDir(), JournalConfig{})
	t.Cleanup(func() { j.Close() })
	addr, srv := startServer(t, Config{
		Factory: pool, Journal: j, SnapshotEveryFrames: 1,
		ReadTimeout: 20 * time.Second, Retention: time.Minute,
	})
	c, err := Dial(addr, fx.hello("canary", 5), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const frames, frameSamples = 6, 100
	for i := 0; i < frames; i++ {
		for ch, spec := range fx.specs {
			values := make([]float64, frameSamples*spec.Lanes)
			for k := range values {
				values[k] = fx.refs[ch].Data[k%spec.Lanes][i*frameSamples+k/spec.Lanes]
			}
			if err := c.SendData(ch, uint64(i*frameSamples), values); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.mu.Lock()
	s := srv.sessions["canary"]
	srv.mu.Unlock()
	waitFor(t, 5*time.Second, func() bool {
		for ch := range fx.specs {
			if s.committed[ch].Load() != frames*frameSamples {
				return false
			}
		}
		return true
	})
	tee, ok := s.sink.(*shadowSink)
	if !ok {
		t.Fatalf("canary session sink is %T, want *shadowSink", s.sink)
	}
	primaryState, err := tee.primary.(*sharedSink).CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	shadowState, err := tee.shadow.(*sharedSink).CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(primaryState, shadowState) {
		t.Fatal("fixture: candidate state matches the primary's; the test cannot tell them apart")
	}

	exported := srv.exportSessions(5 * time.Second)
	if len(exported) != 1 {
		t.Fatalf("exported %d sessions, want 1", len(exported))
	}
	exported[0].sess.step(event{kind: evRefuse}) // no successor: the session stays here
	var journaled *Frame
	waitFor(t, 5*time.Second, func() bool {
		live := j.ExportLive()
		if len(live) != 1 {
			return false
		}
		journaled = live[0]
		return bytes.Equal(journaled.Blob, primaryState)
	})
	for name, rs := range map[string]*Frame{"journal": journaled, "export": exported[0].Frame} {
		if rs.Model != v1 {
			t.Errorf("%s records model %q, want the primary's %s", name, rs.Model, v1)
		}
		if !bytes.Equal(rs.Blob, primaryState) {
			t.Errorf("%s records a state other than the primary's", name)
		}
	}
}

// TestSharedPoolShadowRestoreNeverTees: Restore — crash recovery and
// handoff — hands out a plain pool sink while a candidate is set, and takes
// no reference on the candidate.
func TestSharedPoolShadowRestoreNeverTees(t *testing.T) {
	fx := fixture(t)
	pool, v1 := shadowPool(t)
	cand := fixtureModel(t, 2)
	v2 := modelVersion(t, cand)
	pool.SetShadow(cand, true, nil)
	s, err := pool.Restore(fx.helloFrame("restored", v1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*sharedSink); !ok {
		t.Fatalf("Restore under a canary returned %T, want *sharedSink", s)
	}
	wantRefs(t, pool, map[string]int{v1: 1, v2: 1})
	pool.Release(s)
	pool.SetShadow(nil, false, nil)
	wantRefs(t, pool, map[string]int{v1: 0, v2: 0})
}

// TestSharedPoolShadowRetireAndPromote follows a candidate's two exits the
// way nsyncd's deployment hooks drive them. Retired (the shadow cleared), an
// unpinned candidate stays resident only until the last session teed into
// it releases. Promoted (registered, made the default, then the shadow
// cleared), it stays pinned and serves every new session.
func TestSharedPoolShadowRetireAndPromote(t *testing.T) {
	fx := fixture(t)
	pool, _ := shadowPool(t)
	cand := fixtureModel(t, 2)
	v2 := modelVersion(t, cand)

	pool.SetShadow(cand, false, nil)
	s, err := pool.Acquire(fx.helloFrame("retire", ""))
	if err != nil {
		t.Fatal(err)
	}
	pool.SetShadow(nil, false, nil) // retire
	if models, _ := pool.Resident(); models != 2 {
		t.Fatalf("retired candidate left while a session still tees into it (%d models resident)", models)
	}
	pool.Release(s)
	if models, refs := pool.Resident(); models != 1 || refs != 0 || pool.Has(v2) {
		t.Fatalf("Resident() = %d models / %d refs after the last shadow release, want the retired candidate evicted", models, refs)
	}

	pool.SetShadow(cand, true, nil)
	s, err = pool.Acquire(fx.helloFrame("promote", ""))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := pool.Register(cand); err != nil || v != v2 {
		t.Fatalf("Register(candidate) = %s, %v; want %s", v, err, v2)
	}
	pool.SetDefault(v2)
	pool.SetShadow(nil, false, nil)
	pool.Release(s)
	if models, refs := pool.Resident(); models != 2 || refs != 0 {
		t.Fatalf("Resident() = %d models / %d refs after promotion, want both pinned and idle", models, refs)
	}
	if pool.Default() != v2 {
		t.Fatalf("default is %s after promotion, want %s", pool.Default(), v2)
	}
	s, err = pool.Acquire(fx.helloFrame("after", ""))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*sharedSink).ModelVersion(); got != v2 {
		t.Fatalf("new session serves %s, want the promoted %s", got, v2)
	}
	pool.Release(s)
}
