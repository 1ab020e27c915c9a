package sigproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCorrelationDistanceProperties(t *testing.T) {
	u := []float64{1, 5, 2, 8, 3}
	if got := CorrelationDistance(u, u); !almostEqual(got, 0, 1e-12) {
		t.Errorf("d(u,u) = %v, want 0", got)
	}
	neg := make([]float64, len(u))
	for i := range u {
		neg[i] = -u[i]
	}
	if got := CorrelationDistance(u, neg); !almostEqual(got, 2, 1e-12) {
		t.Errorf("d(u,-u) = %v, want 2", got)
	}
}

// Property: correlation distance is in [0, 2] and symmetric.
func TestCorrelationDistanceRange(t *testing.T) {
	f := func(uRaw, vRaw [12]float64) bool {
		u, v := sanitize(uRaw[:]), sanitize(vRaw[:])
		d := CorrelationDistance(u, v)
		return d >= -1e-9 && d <= 2+1e-9 &&
			almostEqual(d, CorrelationDistance(v, u), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestMAE(t *testing.T) {
	tests := []struct {
		name string
		u, v []float64
		want float64
	}{
		{"identical", []float64{1, 2}, []float64{1, 2}, 0},
		{"unit offsets", []float64{1, 2, 3}, []float64{2, 1, 4}, 1},
		{"empty", nil, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MAE(tt.u, tt.v); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("MAE = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMAEGainSensitive(t *testing.T) {
	// MAE must NOT be gain-invariant — this is the paper's argument for
	// correlation distance.
	u := []float64{1, 2, 3}
	v := []float64{2, 4, 6}
	if MAE(u, v) == 0 {
		t.Error("MAE of scaled copy should be nonzero")
	}
	if !almostEqual(CorrelationDistance(u, v), 0, 1e-12) {
		t.Error("correlation distance of scaled copy should be ~0")
	}
}

func TestEuclideanManhattan(t *testing.T) {
	u := []float64{0, 0}
	v := []float64{3, 4}
	if got := Euclidean(u, v); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Euclidean = %v, want 5", got)
	}
	if got := Manhattan(u, v); !almostEqual(got, 7, 1e-12) {
		t.Errorf("Manhattan = %v, want 7", got)
	}
}

func TestCosineDistance(t *testing.T) {
	if got := CosineDistance([]float64{1, 2}, []float64{2, 4}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("parallel cosine distance = %v, want 0", got)
	}
}

func TestMultiChannelDistance(t *testing.T) {
	x := &Signal{Rate: 1, Data: [][]float64{{1, 2, 3}, {5, 5, 6}}}
	y := &Signal{Rate: 1, Data: [][]float64{{1, 2, 3}, {5, 5, 6}}}
	got, err := MultiChannelDistance(CorrelationDistance, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0, 1e-12) {
		t.Errorf("self distance = %v, want 0", got)
	}
	if _, err := MultiChannelDistance(MAE, x, New(1, 2, 2)); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestMinFilter(t *testing.T) {
	in := []float64{5, 1, 4, 4, 9, 2}
	got := MinFilter(in, 3)
	want := []float64{5, 1, 1, 1, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MinFilter[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMinFilterDegenerate(t *testing.T) {
	in := []float64{3, 1, 2}
	got := MinFilter(in, 0)
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("window 0 should copy input; got %v", got)
		}
	}
	got1 := MinFilter(in, 1)
	for i := range in {
		if got1[i] != in[i] {
			t.Errorf("window 1 should copy input; got %v", got1)
		}
	}
}

// Property: min-filter output never exceeds the input and suppresses
// isolated spikes (a single high sample surrounded by low ones never
// survives a window >= 2).
func TestMinFilterSuppressesSpikes(t *testing.T) {
	f := func(vals [16]float64, pos uint8) bool {
		in := make([]float64, len(vals))
		for i := range vals {
			in[i] = math.Abs(vals[i])
			if math.IsNaN(in[i]) || math.IsInf(in[i], 0) {
				in[i] = 1
			}
		}
		out := MinFilter(in, 3)
		for i := range out {
			if out[i] > in[i]+1e-12 {
				return false
			}
		}
		// Inject a spike and confirm it does not survive.
		p := 1 + int(pos)%(len(in)-2)
		in[p] = 1e12
		out = MinFilter(in, 2)
		return out[p] <= math.Min(in[p-1], 1e12)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestMovingAverage(t *testing.T) {
	in := []float64{2, 4, 6, 8}
	got := MovingAverage(in, 2)
	want := []float64{2, 3, 5, 7}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// minFilterNaive is the original O(n*w) per-sample scan, kept as the
// reference implementation for the equivalence test against the
// monotonic-deque MinFilter.
func minFilterNaive(v []float64, n int) []float64 {
	out := make([]float64, len(v))
	if n < 1 {
		copy(out, v)
		return out
	}
	for i := range v {
		lo := i - n + 1
		if lo < 0 {
			lo = 0
		}
		m := v[lo]
		for j := lo + 1; j <= i; j++ {
			if v[j] < m {
				m = v[j]
			}
		}
		out[i] = m
	}
	return out
}

func TestMinFilterMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{0, 1, 2, 7, 64, 513}
	windows := []int{-1, 0, 1, 2, 3, 8, 64, 1000}
	for _, l := range lengths {
		for _, n := range windows {
			in := make([]float64, l)
			for i := range in {
				in[i] = rng.NormFloat64()
			}
			// Duplicates exercise the >= eviction rule.
			if l > 4 {
				in[2] = in[1]
				in[l-1] = in[l-2]
			}
			got := MinFilter(in, n)
			want := minFilterNaive(in, n)
			if len(got) != len(want) {
				t.Fatalf("len(MinFilter(%d-sample, n=%d)) = %d, want %d", l, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("MinFilter(%d-sample, n=%d)[%d] = %v, naive = %v", l, n, i, got[i], want[i])
				}
			}
		}
	}
}

func benchMinFilterInput(n int) []float64 {
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func BenchmarkMinFilter(b *testing.B) {
	in := benchMinFilterInput(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinFilter(in, 128)
	}
}

func BenchmarkMinFilterNaive(b *testing.B) {
	in := benchMinFilterInput(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minFilterNaive(in, 128)
	}
}
