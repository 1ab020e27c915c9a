package dwm

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"nsync/internal/scratch"
	"nsync/internal/sigproc"
	"nsync/internal/tde"
)

// TestRunPooledEquivalence verifies a full DWM run over the pooled TDE/
// signal-view hot path is byte-identical to the allocating path. Poison is
// on, so a stale read from a recycled buffer would turn into NaN scores.
func TestRunPooledEquivalence(t *testing.T) {
	scratch.SetPoison(true)
	defer scratch.SetPoison(false)
	rng := rand.New(rand.NewSource(600))
	b := walk(rng, 100, 3000)
	a := growingDelaySignal(b, 400, 3)

	compute := func() *Result {
		r, err := Run(a, b, testParams())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	compute() // warm the pools
	pooled := compute()
	scratch.SetEnabled(false)
	fresh := compute()
	scratch.SetEnabled(true)

	if len(pooled.HDisp) != len(fresh.HDisp) {
		t.Fatalf("window counts differ: %d vs %d", len(pooled.HDisp), len(fresh.HDisp))
	}
	for i := range pooled.HDisp {
		if pooled.HDisp[i] != fresh.HDisp[i] || pooled.HLow[i] != fresh.HLow[i] {
			t.Errorf("window %d: pooled (h=%d, low=%d) != fresh (h=%d, low=%d)",
				i, pooled.HDisp[i], pooled.HLow[i], fresh.HDisp[i], fresh.HLow[i])
		}
		if pooled.Scores[i] != fresh.Scores[i] {
			t.Errorf("window %d: pooled score %v != fresh %v", i, pooled.Scores[i], fresh.Scores[i])
		}
	}
}

// fftParams are the UM3 parameters (4 s window, 2 s extension); at 100 Hz
// every search region takes the TDE fast path's FFT branch and reads the
// reference's cached block spectra.
func fftParams() Params {
	return Params{TWin: 4, THop: 2, TExt: 2, TSigma: 1, Eta: 0.1}
}

// paramSets cover both TDE cross-term branches: direct evaluation and the
// FFT correlation against cached reference spectra.
var paramSets = []struct {
	name string
	p    Params
}{
	{"direct", testParams()},
	{"fft", fftParams()},
}

// TestStepAllocFree is the allocation guard on the DWM hot path: once the
// synchronizer and the shared TDE pools are warm, Step must not allocate.
func TestStepAllocFree(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("race mode: sync.Pool drops items at random, steady state is not alloc-free")
	}
	for _, ps := range paramSets {
		t.Run(ps.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(601))
			b := walk(rng, 100, 3000)
			a := growingDelaySignal(b, 400, 3)
			s, err := NewSynchronizer(b, ps.p)
			if err != nil {
				t.Fatal(err)
			}
			nWindows := s.NumWindows(a.Len())
			var winView sigproc.Signal
			feed := func() {
				if s.WindowIndex() == nWindows {
					s.Reset() // keeps slice capacity, so later appends stay in place
				}
				start := s.WindowIndex() * s.SampleParams().NHop
				if _, _, err := s.Step(a.SliceInto(&winView, start, start+s.SampleParams().NWin)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < nWindows; i++ {
				feed() // warm pass: grows the result slices and the TDE pools
			}
			if allocs := testing.AllocsPerRun(100, feed); allocs > 0 {
				t.Errorf("Step allocates %.1f objects per window in steady state, want 0", allocs)
			}
		})
	}
}

// TestResultDoesNotAliasState: the slices Result hands out must survive
// further Steps and a Reset recycling the synchronizer's internal arrays.
func TestResultDoesNotAliasState(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	b := walk(rng, 100, 2000)
	a := growingDelaySignal(b, 400, 2)
	s, err := NewSynchronizer(b, testParams())
	if err != nil {
		t.Fatal(err)
	}
	sp := s.SampleParams()
	nWindows := s.NumWindows(a.Len())
	if nWindows < 4 {
		t.Fatalf("test signal too short: %d windows", nWindows)
	}
	var winView sigproc.Signal
	step := func(i int) {
		start := i * sp.NHop
		if _, _, err := s.Step(a.SliceInto(&winView, start, start+sp.NWin)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nWindows/2; i++ {
		step(i)
	}
	snap := s.Result()
	hDisp := append([]int(nil), snap.HDisp...)
	scores := append([]float64(nil), snap.Scores...)
	for i := nWindows / 2; i < nWindows; i++ {
		step(i)
	}
	s.Reset()
	step(0) // scribbles over the truncated-but-capacious internal arrays
	for i := range hDisp {
		if snap.HDisp[i] != hDisp[i] {
			t.Fatalf("Result.HDisp[%d] changed from %d to %d after later steps: result aliases synchronizer state", i, hDisp[i], snap.HDisp[i])
		}
		if snap.Scores[i] != scores[i] {
			t.Fatalf("Result.Scores[%d] changed from %v to %v after later steps", i, scores[i], snap.Scores[i])
		}
	}
}

// TestConcurrentRunsShareProcessPools runs independent synchronizers on
// one reference in parallel over the shared TDE scratch pools and, at the
// FFT shape, the shared block spectra of the reference; under -race this
// verifies the pooled hot path is race-clean, and each run must still
// equal the serial result exactly.
func TestConcurrentRunsShareProcessPools(t *testing.T) {
	for _, ps := range paramSets {
		t.Run(ps.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(603))
			b := walk(rng, 100, 2500)
			a := growingDelaySignal(b, 400, 2)
			want, err := Run(a, b, ps.p)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 4
			var wg sync.WaitGroup
			errs := make([]error, workers)
			results := make([]*Result, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					results[w], errs[w] = Run(a, b, ps.p)
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if errs[w] != nil {
					t.Fatalf("worker %d: %v", w, errs[w])
				}
				for i := range want.HDisp {
					if results[w].HDisp[i] != want.HDisp[i] || results[w].Scores[i] != want.Scores[i] {
						t.Fatalf("worker %d window %d: (%d, %v) != serial (%d, %v)",
							w, i, results[w].HDisp[i], results[w].Scores[i], want.HDisp[i], want.Scores[i])
					}
				}
			}
		})
	}
}

// TestRunAfterInPlaceReferenceChange is the stale-spectra regression: a
// caller that blends new data into its reference in place and runs DWM
// against the same signal again, as re-baselining does, must get what an
// estimator that never caches spectra gets on the changed reference.
func TestRunAfterInPlaceReferenceChange(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	b := walk(rng, 100, 3000)
	a := growingDelaySignal(b, 400, 3)
	if _, err := Run(a, b, fftParams()); err != nil { // caches b's spectra
		t.Fatal(err)
	}
	drift := walk(rng, 100, 3000)
	for i, v := range b.Data[0] {
		b.Data[0][i] = 0.6*v + 0.4*drift.Data[0][i]
	}
	got, err := Run(a, b, fftParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(a, b, fftParams(), WithEstimator(tde.New(tde.WithoutFastPath())))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.HDisp {
		if got.HDisp[i] != want.HDisp[i] || math.Abs(got.Scores[i]-want.Scores[i]) > 1e-9 {
			t.Fatalf("window %d: (%d, %v), uncached (%d, %v)", i, got.HDisp[i], got.Scores[i], want.HDisp[i], want.Scores[i])
		}
	}
}

// BenchmarkStep is one DWM window at the CI scale's raw-signal shapes on
// UM3 (lanes at their CI rates, 4 s windows, 2 s extensions), against a
// 65 s reference whose block spectra are cached before timing starts.
func BenchmarkStep(b *testing.B) {
	shapes := []struct {
		name  string
		lanes int
		rate  float64
	}{
		{"ACC", 6, 400},
		{"MAG", 3, 100},
		{"AUD", 2, 4800},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(605))
			ref := sigproc.New(sh.rate, sh.lanes, int(65*sh.rate))
			for c := range ref.Data {
				copy(ref.Data[c], walk(rng, sh.rate, ref.Len()).Data[0])
			}
			obs := growingDelaySignal(ref, int(5*sh.rate), int(0.01*sh.rate))
			s, err := NewSynchronizer(ref, fftParams())
			if err != nil {
				b.Fatal(err)
			}
			sp := s.SampleParams()
			nWindows := s.NumWindows(obs.Len())
			var winView sigproc.Signal
			step := func() {
				if s.WindowIndex() == nWindows {
					s.Reset()
				}
				start := s.WindowIndex() * sp.NHop
				if _, _, err := s.Step(obs.SliceInto(&winView, start, start+sp.NWin)); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < nWindows; i++ {
				step() // warm pass: grows the result slices and the TDE pools
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
