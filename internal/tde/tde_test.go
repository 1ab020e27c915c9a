package tde

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nsync/internal/sigproc"
)

// noisySignal builds a 1-channel random-walk signal, which correlates well
// with itself and poorly with shifted copies — ideal for TDE tests.
func noisySignal(rng *rand.Rand, n int) *sigproc.Signal {
	s := sigproc.New(100, 1, n)
	v := 0.0
	for i := 0; i < n; i++ {
		v += rng.NormFloat64()
		s.Data[0][i] = v
	}
	return s
}

func TestDelayRecoversEmbeddedOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := noisySignal(rng, 500)
	for _, offset := range []int{0, 1, 17, 250, 400} {
		y := x.Slice(offset, offset+100)
		d, score, err := New().Delay(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if d != offset {
			t.Errorf("Delay = %d, want %d", d, offset)
		}
		if !almost(score, 1, 1e-9) {
			t.Errorf("score = %v, want 1", score)
		}
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Property: for any random-walk signal and any valid offset, the sliding
// method recovers the exact embedding offset (the TDE invariant from
// DESIGN.md).
func TestDelayPropertyExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64, offRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		x := noisySignal(r, 300)
		off := int(offRaw) % 200
		y := x.Slice(off, off+100)
		d, _, err := New().Delay(x, y)
		return err == nil && d == off
	}
	if err := quick.Check(f, &quick.Config{Rand: rng, MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDelayGainInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := noisySignal(rng, 400)
	y := x.Slice(120, 220).Clone().Scale(3.7).Offset(-2)
	d, _, err := New().Delay(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d != 120 {
		t.Errorf("Delay of scaled/offset copy = %d, want 120", d)
	}
}

func TestSimilarityArrayLength(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := noisySignal(rng, 120)
	y := x.Slice(0, 50)
	s, err := New().SimilarityArray(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 120-50+1 {
		t.Errorf("similarity array length = %d, want 71", len(s))
	}
	for i, v := range s {
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Errorf("score[%d] = %v outside [-1,1]", i, v)
		}
	}
}

func TestErrTooShort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := noisySignal(rng, 10)
	y := noisySignal(rng, 20)
	if _, _, err := New().Delay(x, y); !errors.Is(err, ErrTooShort) {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
}

func TestChannelMismatch(t *testing.T) {
	x := sigproc.New(10, 2, 30)
	y := sigproc.New(10, 1, 10)
	if _, err := New().SimilarityArray(x, y); err == nil {
		t.Error("channel mismatch: want error")
	}
}

func TestMultiChannelImprovesOverSingle(t *testing.T) {
	// Multi-channel averaging should pick the true delay even when one
	// channel is pure noise.
	rng := rand.New(rand.NewSource(25))
	n := 400
	x := sigproc.New(100, 2, n)
	v := 0.0
	for i := 0; i < n; i++ {
		v += rng.NormFloat64()
		x.Data[0][i] = v
		x.Data[1][i] = rng.NormFloat64() * 1e-6 // nearly-dead channel
	}
	y := x.Slice(200, 300)
	d, _, err := New().Delay(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d != 200 {
		t.Errorf("multi-channel Delay = %d, want 200", d)
	}
}

func TestDelayBiasedPullsPeriodicAmbiguityToCenter(t *testing.T) {
	// A pure sine has many equally good delays; TDEB must choose the one
	// nearest the center of the search range (Fig. 5 of the paper).
	n := 400
	x := sigproc.New(100, 1, n)
	for i := 0; i < n; i++ {
		x.Data[0][i] = math.Sin(2 * math.Pi * float64(i) / 20) // period 20
	}
	y := x.Slice(100, 200) // any multiple-of-20 shift matches equally
	est := New()
	d, _, err := est.DelayBiased(x, y, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The perfect match at delay 100 is 50 samples off-center; the periodic
	// ambiguity gives equally perfect matches every 20 samples. With a
	// sigma of 10 the bias must keep the estimate within about half a
	// period of the center (the multiplicative bias may also pull the
	// argmax slightly off an exact correlation peak, which is fine — the
	// paper only needs h_disp to stay near its prediction).
	center := (x.Len() - y.Len()) / 2 // 150
	if math.Abs(float64(d-center)) > 10 {
		t.Errorf("biased delay = %d, want within half a period of center %d", d, center)
	}
}

func TestDelayBiasedStillFindsStrongMatch(t *testing.T) {
	// Bias must not override a clear off-center match when sigma is wide.
	rng := rand.New(rand.NewSource(26))
	x := noisySignal(rng, 300)
	y := x.Slice(30, 130)
	d, _, err := New().DelayBiased(x, y, 120)
	if err != nil {
		t.Fatal(err)
	}
	if d != 30 {
		t.Errorf("biased delay = %d, want 30", d)
	}
}

func TestDelayBiasedAtCustomCenter(t *testing.T) {
	n := 300
	x := sigproc.New(100, 1, n)
	for i := 0; i < n; i++ {
		x.Data[0][i] = math.Sin(2 * math.Pi * float64(i) / 25)
	}
	y := x.Slice(0, 100)
	d, _, err := New().DelayBiasedAt(x, y, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d != 50 {
		t.Errorf("biased-at-50 delay = %d, want 50", d)
	}
}

func TestBiasedScoresProperties(t *testing.T) {
	s := []float64{-0.5, 0.2, 0.9, 0.2, -0.5}
	b := BiasedScores(s, 1)
	if len(b) != len(s) {
		t.Fatalf("length = %d, want %d", len(b), len(s))
	}
	for i, v := range b {
		if v < 0 {
			t.Errorf("biased score %d = %v, want >= 0", i, v)
		}
	}
	if b[2] <= b[0] || b[2] <= b[4] {
		t.Error("center score should dominate after bias")
	}
	if got := BiasedScores(nil, 1); len(got) != 0 {
		t.Errorf("BiasedScores(nil) = %v, want empty", got)
	}
}

func TestBiasedScoresZeroSigma(t *testing.T) {
	s := []float64{0.1, 0.9, 0.3}
	b := BiasedScoresAt(s, 2, 0)
	if b[0] != 0 || b[1] != 0 {
		t.Errorf("zero sigma should zero non-center entries, got %v", b)
	}
	if b[2] <= 0 {
		t.Errorf("zero sigma center = %v, want > 0", b[2])
	}
}

func TestWithStackedChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	x := sigproc.New(100, 2, 200)
	v := 0.0
	for i := 0; i < 200; i++ {
		v += rng.NormFloat64()
		x.Data[0][i] = v
		x.Data[1][i] = v * 0.5
	}
	y := x.Slice(60, 120)
	d, _, err := New(WithStackedChannels()).Delay(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d != 60 {
		t.Errorf("stacked Delay = %d, want 60", d)
	}
}

func TestWithSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	x := noisySignal(rng, 200)
	y := x.Slice(40, 100)
	d, _, err := New(WithSimilarity(sigproc.CosineSimilarity)).Delay(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d != 40 {
		t.Errorf("cosine Delay = %d, want 40", d)
	}
}

// perScoreBiased is the TDEB bias as it ran before the weight table: one
// math.Exp per score.
func perScoreBiased(s []float64, center int, sigma float64) []float64 {
	out := make([]float64, len(s))
	lo := s[0]
	for _, v := range s {
		lo = math.Min(lo, v)
	}
	for i, v := range s {
		w := 0.0
		if sigma <= 0 {
			if i == center {
				w = 1
			}
		} else {
			d := float64(i-center) / sigma
			w = math.Exp(-0.5 * d * d)
		}
		out[i] = (v - lo) * w
	}
	return out
}

// TestBiasedWeightTableBitExact drives one corrBuf's cached weight table
// through sigma changes, growing and shrinking reach, centers outside the
// array, sigmas wide and narrow enough to reach the underflow cutoff, and
// sigma <= 0. Every biased array must equal the per-score math.Exp
// evaluation bit for bit, from the cache and from a fresh table alike.
func TestBiasedWeightTableBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := &corrBuf{}
	steps := []struct {
		n, center int
		sigma     float64
	}{
		{401, 200, 25}, {401, 10, 25}, {401, 200, 25}, // cache hits
		{1601, 800, 25}, {101, 50, 25}, // grow, then a shorter reach
		{401, -300, 40}, {401, 900, 40}, // centers off the array
		{3001, 1500, 3},    // narrow: the table stops at underflow
		{3001, -2000, 3},   // ... and serves any reach after that
		{401, 200, 400},    // wide: no weight underflows
		{61, 30, 0},        // sigma 0: a spike at the center
		{61, 70, -1},       // sigma < 0 behaves as 0
		{401, 200, 1e-300}, // everything but the center underflows
	}
	for _, st := range steps {
		s := make([]float64, st.n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		want := perScoreBiased(s, st.center, st.sigma)
		w := buf.gaussianWeights(st.sigma, biasReach(st.n, st.center))
		cached := biasedScoresInto(make([]float64, st.n), s, st.center, w)
		fresh := BiasedScoresAt(s, st.center, st.sigma)
		for i := range want {
			if math.Float64bits(cached[i]) != math.Float64bits(want[i]) ||
				math.Float64bits(fresh[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: biased[%d] cached %v fresh %v, want %v", st, i, cached[i], fresh[i], want[i])
			}
		}
	}
}
