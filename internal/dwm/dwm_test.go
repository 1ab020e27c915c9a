package dwm

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nsync/internal/sigproc"
)

// walk builds a random-walk signal (broad autocorrelation, like smooth
// physical side channels).
func walk(rng *rand.Rand, rate float64, n int) *sigproc.Signal {
	s := sigproc.New(rate, 1, n)
	v := 0.0
	for i := 0; i < n; i++ {
		v += rng.NormFloat64()
		s.Data[0][i] = v
	}
	return s
}

// noise builds a white-noise signal (delta-like autocorrelation), on which
// TDE recovers offsets exactly and the TDEB bias cannot move the argmax.
func noise(rng *rand.Rand, rate float64, n int) *sigproc.Signal {
	s := sigproc.New(rate, 1, n)
	for i := 0; i < n; i++ {
		s.Data[0][i] = rng.NormFloat64()
	}
	return s
}

func testParams() Params {
	return Params{TWin: 0.5, THop: 0.25, TExt: 0.2, TSigma: 0.1, Eta: 0.1}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
	}{
		{"valid", func(*Params) {}, false},
		{"zero TWin", func(p *Params) { p.TWin = 0 }, true},
		{"hop over win", func(p *Params) { p.THop = p.TWin * 2 }, true},
		{"zero hop", func(p *Params) { p.THop = 0 }, true},
		{"zero TExt", func(p *Params) { p.TExt = 0 }, true},
		{"negative sigma", func(p *Params) { p.TSigma = -1 }, true},
		{"eta above 1", func(p *Params) { p.Eta = 1.5 }, true},
		{"eta zero ok", func(p *Params) { p.Eta = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := testParams()
			tt.mutate(&p)
			if err := p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestDefaultParamsRatios(t *testing.T) {
	p := DefaultParams(4.0, 2.0)
	if p.THop != 2.0 {
		t.Errorf("THop = %v, want TWin/2", p.THop)
	}
	if p.TSigma != 1.0 {
		t.Errorf("TSigma = %v, want TExt/2", p.TSigma)
	}
	if p.Eta != 0.1 {
		t.Errorf("Eta = %v, want 0.1", p.Eta)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestSamplesConversion(t *testing.T) {
	sp := testParams().Samples(100)
	if sp.NWin != 50 || sp.NHop != 25 || sp.NExt != 20 {
		t.Errorf("samples = %+v", sp)
	}
	if !almost(sp.NSigma, 10, 1e-12) {
		t.Errorf("NSigma = %v, want 10", sp.NSigma)
	}
	// Tiny durations clamp to 1 sample.
	tiny := Params{TWin: 1e-9, THop: 1e-9, TExt: 1e-9, TSigma: 0, Eta: 0.1}.Samples(100)
	if tiny.NWin != 1 || tiny.NHop != 1 || tiny.NExt != 1 {
		t.Errorf("tiny params not clamped: %+v", tiny)
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSelfSynchronizationIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	b := walk(rng, 100, 2000)
	res, err := Run(b, b, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HDisp) == 0 {
		t.Fatal("no windows synchronized")
	}
	for i, h := range res.HDisp {
		if h != 0 {
			t.Errorf("self h_disp[%d] = %d, want 0", i, h)
		}
	}
	for i, s := range res.Scores {
		if !almost(s, 1, 1e-9) {
			t.Errorf("self score[%d] = %v, want 1", i, s)
		}
	}
}

func TestConstantShiftRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	full := noise(rng, 100, 2100)
	b := full
	for _, shift := range []int{3, 9, 15} {
		a := full.Slice(shift, 2100) // a[i] = b[i+shift]
		res, err := Run(a, b, testParams())
		if err != nil {
			t.Fatal(err)
		}
		// Skip the first few windows while h_low converges.
		for i := 3; i < len(res.HDisp); i++ {
			if res.HDisp[i] != shift {
				t.Errorf("shift %d: h_disp[%d] = %d", shift, i, res.HDisp[i])
			}
		}
	}
}

// growingDelaySignal plays b progressively "slower": every segment of segLen
// samples repeats its last rep samples, so the cumulative displacement grows
// by -rep per segment.
func growingDelaySignal(b *sigproc.Signal, segLen, rep int) *sigproc.Signal {
	out := &sigproc.Signal{Rate: b.Rate}
	pos := 0
	for pos+segLen <= b.Len() {
		_ = out.Concat(b.Slice(pos, pos+segLen))
		pos += segLen - rep
	}
	return out
}

func TestTracksGrowingTimeNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	b := noise(rng, 100, 4000)
	a := growingDelaySignal(b, 500, 2) // drifts -2 samples every ~5 s
	res, err := Run(a, b, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HDisp) < 10 {
		t.Fatalf("too few windows: %d", len(res.HDisp))
	}
	last := res.HDisp[len(res.HDisp)-1]
	if last >= 0 {
		t.Errorf("final h_disp = %d, want negative (growing delay)", last)
	}
	// The drift should be roughly -2 per 498 reference samples consumed.
	aLen := a.Len()
	expected := -2 * (aLen / 498)
	if math.Abs(float64(last-expected)) > 6 {
		t.Errorf("final h_disp = %d, want about %d", last, expected)
	}
	// h_disp should be mostly non-increasing over time (allowing small
	// estimation wobble).
	bad := 0
	for i := 1; i < len(res.HDisp); i++ {
		if res.HDisp[i] > res.HDisp[i-1]+2 {
			bad++
		}
	}
	if bad > len(res.HDisp)/10 {
		t.Errorf("%d/%d windows moved against the drift", bad, len(res.HDisp))
	}
}

func TestHLowInertiaBound(t *testing.T) {
	// |h_low[i] - h_low[i-1]| <= round(eta * n_ext) always (Eq. 12).
	rng := rand.New(rand.NewSource(33))
	b := noise(rng, 100, 3000)
	a := growingDelaySignal(b, 300, 3)
	p := testParams()
	res, err := Run(a, b, p)
	if err != nil {
		t.Fatal(err)
	}
	sp := p.Samples(100)
	bound := int(math.Round(sp.Eta*float64(sp.NExt))) + 1
	prev := 0
	for i, h := range res.HLow {
		if d := h - prev; d > bound || d < -bound {
			t.Errorf("h_low jump at %d: %d -> %d exceeds bound %d", i, prev, h, bound)
		}
		prev = h
	}
}

func TestStepValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	b := walk(rng, 100, 500)
	s, err := NewSynchronizer(b, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Step(walk(rng, 100, 10)); err == nil {
		t.Error("wrong window size: want error")
	}
	if _, _, err := s.Step(sigproc.New(100, 2, 50)); err == nil {
		t.Error("wrong channel count: want error")
	}
}

func TestNewSynchronizerErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	if _, err := NewSynchronizer(walk(rng, 100, 10), testParams()); err == nil {
		t.Error("reference shorter than window: want error")
	}
	if _, err := NewSynchronizer(&sigproc.Signal{Rate: 100}, testParams()); err == nil {
		t.Error("empty reference: want error")
	}
	bad := testParams()
	bad.TWin = -1
	if _, err := NewSynchronizer(walk(rng, 100, 500), bad); err == nil {
		t.Error("invalid params: want error")
	}
}

func TestRunChannelMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	b := walk(rng, 100, 500)
	a := sigproc.New(100, 2, 500)
	if _, err := Run(a, b, testParams()); err == nil {
		t.Error("channel mismatch: want error")
	}
}

func TestNumWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	b := walk(rng, 100, 1000)
	s, err := NewSynchronizer(b, testParams()) // NWin 50, NHop 25
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ n, want int }{
		{0, 0}, {49, 0}, {50, 1}, {74, 1}, {75, 2}, {1000, 39},
	}
	for _, tt := range tests {
		if got := s.NumWindows(tt.n); got != tt.want {
			t.Errorf("NumWindows(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// TestRunEqualsRepeatedStep is the regression test for the hoisted loop
// bound in Run: feeding every window through Step by hand must produce a
// Result identical in every field to one Run call, including the window
// count implied by NumWindows evaluated once up front.
func TestRunEqualsRepeatedStep(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	b := walk(rng, 100, 2500)
	a := growingDelaySignal(b, 300, 2)
	p := testParams()
	batch, err := Run(a, b, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSynchronizer(b, p)
	if err != nil {
		t.Fatal(err)
	}
	sp := s.SampleParams()
	want := s.NumWindows(a.Len())
	for i := 0; i < want; i++ {
		lo := i * sp.NHop
		if _, _, err := s.Step(a.Slice(lo, lo+sp.NWin)); err != nil {
			t.Fatal(err)
		}
	}
	if s.WindowIndex() != want {
		t.Fatalf("stepped %d windows, NumWindows says %d", s.WindowIndex(), want)
	}
	if got := len(batch.HDisp); got != want {
		t.Fatalf("Run produced %d windows, NumWindows says %d", got, want)
	}
	if !reflect.DeepEqual(s.Result(), batch) {
		t.Errorf("Run result differs from repeated Step:\nrun:  %+v\nstep: %+v", batch, s.Result())
	}
}

func TestStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	b := noise(rng, 100, 2000)
	a := growingDelaySignal(b, 400, 1)
	p := testParams()
	batch, err := Run(a, b, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSynchronizer(b, p)
	if err != nil {
		t.Fatal(err)
	}
	sp := s.SampleParams()
	for i := 0; i < s.NumWindows(a.Len()); i++ {
		lo := i * sp.NHop
		if _, _, err := s.Step(a.Slice(lo, lo+sp.NWin)); err != nil {
			t.Fatal(err)
		}
	}
	stream := s.Result()
	if len(stream.HDisp) != len(batch.HDisp) {
		t.Fatalf("window counts differ: %d vs %d", len(stream.HDisp), len(batch.HDisp))
	}
	for i := range stream.HDisp {
		if stream.HDisp[i] != batch.HDisp[i] {
			t.Errorf("window %d: stream %d vs batch %d", i, stream.HDisp[i], batch.HDisp[i])
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{HDisp: []int{-3, 4}, NHop: 25, NWin: 50, Rate: 100}
	hs := r.HDispSeconds()
	if !almost(hs[0], -0.03, 1e-12) {
		t.Errorf("HDispSeconds[0] = %v", hs[0])
	}
}

func TestWithoutBiasStillTracksStrongSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	b := walk(rng, 100, 1500)
	res, err := Run(b, b, testParams(), WithoutBias())
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range res.HDisp {
		if h != 0 {
			t.Errorf("unbiased self h_disp[%d] = %d, want 0", i, h)
		}
	}
}

func TestBiasStabilizesPeriodicSignal(t *testing.T) {
	// On a periodic signal, unbiased DWM may lock onto any ambiguous peak;
	// biased DWM must keep h_disp near zero.
	n := 3000
	b := sigproc.New(100, 1, n)
	for i := 0; i < n; i++ {
		b.Data[0][i] = math.Sin(2*math.Pi*float64(i)/40) + 0.05*math.Sin(2*math.Pi*float64(i)/7)
	}
	res, err := Run(b, b, testParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range res.HDisp {
		if h != 0 {
			t.Errorf("biased periodic self h_disp[%d] = %d, want 0", i, h)
		}
	}
}

// Property: DWM h_disp range never exceeds ext + accumulated h_low.
func TestHDispWithinSearchRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := noise(rng, 100, 1200)
		a := growingDelaySignal(b, 350, 2)
		p := testParams()
		res, err := Run(a, b, p)
		if err != nil {
			return false
		}
		sp := p.Samples(100)
		prevLow := 0
		for i, h := range res.HDisp {
			if h > prevLow+sp.NExt || h < prevLow-sp.NExt {
				return false
			}
			prevLow = res.HLow[i]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestRunValidatesObserved: a ragged observed signal must fail up front
// with a clear error, not per-window deep inside Step.
func TestRunValidatesObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	b := walk(rng, 100, 500)
	ragged := &sigproc.Signal{
		Rate: 100,
		Data: [][]float64{make([]float64, 500), make([]float64, 300)},
	}
	_, err := Run(ragged, b, Params{TWin: 0.5, THop: 0.25, TExt: 0.2, TSigma: 0.1, Eta: 0.1})
	if err == nil {
		t.Fatal("ragged observed signal: want error from Run")
	}
	if !strings.Contains(err.Error(), "observed") {
		t.Errorf("error should name the observed signal, got: %v", err)
	}
}

// TestProposeDoesNotMutate: Propose must leave the synchronizer unchanged,
// and Propose+Commit must equal Step exactly.
func TestProposeDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	b := walk(rng, 100, 1000)
	a := growingDelaySignal(b, 100, 4)
	stepped, err := NewSynchronizer(b, testParams())
	if err != nil {
		t.Fatal(err)
	}
	proposed, err := NewSynchronizer(b, testParams())
	if err != nil {
		t.Fatal(err)
	}
	n := proposed.NumWindows(a.Len())
	if n < 3 {
		t.Fatalf("want at least 3 windows, got %d", n)
	}
	for i := 0; i < n; i++ {
		win := a.Slice(i*proposed.sp.NHop, i*proposed.sp.NHop+proposed.sp.NWin)
		// Propose twice: the first call must not disturb the second.
		p1, err := proposed.Propose(win)
		if err != nil {
			t.Fatal(err)
		}
		if got := proposed.WindowIndex(); got != i {
			t.Fatalf("Propose advanced WindowIndex to %d at window %d", got, i)
		}
		p2, err := proposed.Propose(win)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Fatalf("window %d: repeated Propose diverged: %+v vs %+v", i, p1, p2)
		}
		proposed.Commit(p2)
		h, score, err := stepped.Step(win)
		if err != nil {
			t.Fatal(err)
		}
		if h != p2.HDisp || score != p2.Score {
			t.Fatalf("window %d: Step (%d, %v) != Propose+Commit (%d, %v)", i, h, score, p2.HDisp, p2.Score)
		}
	}
	got, want := proposed.Result(), stepped.Result()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Propose+Commit result diverged from Step:\n%+v\n%+v", got, want)
	}
}
