package sigproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCorrelationBasics(t *testing.T) {
	tests := []struct {
		name string
		u, v []float64
		want float64
	}{
		{"identical", []float64{1, 2, 3, 4}, []float64{1, 2, 3, 4}, 1},
		{"negated", []float64{1, 2, 3, 4}, []float64{-1, -2, -3, -4}, -1},
		{"scaled", []float64{1, 2, 3}, []float64{10, 20, 30}, 1},
		{"offset", []float64{1, 2, 3}, []float64{101, 102, 103}, 1},
		{"constant u", []float64{5, 5, 5}, []float64{1, 2, 3}, 0},
		{"constant v", []float64{1, 2, 3}, []float64{7, 7, 7}, 0},
		{"empty", nil, nil, 0},
		{"length mismatch", []float64{1, 2}, []float64{1}, 0},
		{"orthogonal", []float64{1, -1, 1, -1}, []float64{1, 1, -1, -1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Correlation(tt.u, tt.v); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Correlation = %v, want %v", got, tt.want)
			}
		})
	}
}

// sanitize maps arbitrary quick-generated floats into a bounded, finite
// range so intermediate sums cannot overflow.
func sanitize(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 1
		}
		out[i] = math.Remainder(x, 1e3)
	}
	return out
}

// Property: correlation is within [-1, 1] and symmetric.
func TestCorrelationRangeAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{Rand: rng}
	f := func(uRaw, vRaw [8]float64) bool {
		u, v := sanitize(uRaw[:]), sanitize(vRaw[:])
		c1 := Correlation(u, v)
		c2 := Correlation(v, u)
		return c1 >= -1-1e-9 && c1 <= 1+1e-9 && almostEqual(c1, c2, 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: correlation is invariant to positive affine transforms of
// either argument — the key reason NSYNC prefers it over L1/L2 metrics.
func TestCorrelationGainInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(uRaw, vRaw [16]float64, gain8 uint8, off float64) bool {
		u, v := sanitize(uRaw[:]), sanitize(vRaw[:])
		gain := 0.1 + float64(gain8)/32.0
		if math.IsNaN(off) || math.IsInf(off, 0) || math.Abs(off) > 1e6 {
			off = 1
		}
		scaled := make([]float64, len(u))
		for i := range u {
			scaled[i] = u[i]*gain + off
		}
		c1 := Correlation(u, v)
		c2 := Correlation(scaled, v)
		return almostEqual(c1, c2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := CosineSimilarity([]float64{1, 2}, []float64{2, 4}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("parallel cosine = %v, want 1", got)
	}
	if got := CosineSimilarity([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Errorf("zero-vector cosine = %v, want 0", got)
	}
}

func TestMultiChannelSimilarityAverages(t *testing.T) {
	// Channel 0 correlates perfectly; channel 1 anti-correlates.
	x := &Signal{Rate: 1, Data: [][]float64{{1, 2, 3}, {1, 2, 3}}}
	y := &Signal{Rate: 1, Data: [][]float64{{2, 4, 6}, {3, 2, 1}}}
	got, err := MultiChannelSimilarity(Correlation, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0, 1e-12) {
		t.Errorf("average similarity = %v, want 0", got)
	}
}

func TestMultiChannelSimilarityErrors(t *testing.T) {
	x := New(1, 2, 3)
	if _, err := MultiChannelSimilarity(Correlation, x, New(1, 2, 4)); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := MultiChannelSimilarity(Correlation, x, New(1, 1, 3)); err == nil {
		t.Error("channel mismatch: want error")
	}
}

func TestStackedSimilarity(t *testing.T) {
	x := &Signal{Rate: 1, Data: [][]float64{{1, 2}, {3, 4}}}
	y := &Signal{Rate: 1, Data: [][]float64{{1, 2}, {3, 4}}}
	got, err := StackedSimilarity(Correlation, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 1, 1e-12) {
		t.Errorf("stacked self-similarity = %v, want 1", got)
	}
}
