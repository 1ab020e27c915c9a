package pca

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitRecoversDominantDirection(t *testing.T) {
	// Points along the direction (3, 4)/5 with small orthogonal noise.
	rng := rand.New(rand.NewSource(70))
	var data [][]float64
	for i := 0; i < 500; i++ {
		tt := rng.NormFloat64() * 10
		n := rng.NormFloat64() * 0.1
		data = append(data, []float64{3*tt/5 - 4*n/5, 4*tt/5 + 3*n/5})
	}
	m, err := Fit(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	c0 := m.Components[0]
	// First component parallel to (0.6, 0.8), up to sign.
	dot := math.Abs(c0[0]*0.6 + c0[1]*0.8)
	if dot < 0.999 {
		t.Errorf("first component %v not aligned with (0.6, 0.8): |dot| = %v", c0, dot)
	}
	if m.Variances[0] < 50 || m.Variances[1] > 1 {
		t.Errorf("variances = %v, want dominant first", m.Variances)
	}
}

func TestComponentsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var data [][]float64
	for i := 0; i < 200; i++ {
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.NormFloat64() * float64(j+1)
		}
		data = append(data, row)
	}
	m, err := Fit(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 5; a++ {
		for b := a; b < 5; b++ {
			var dot float64
			for j := 0; j < 5; j++ {
				dot += m.Components[a][j] * m.Components[b][j]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-6 {
				t.Errorf("components %d,%d dot = %v, want %v", a, b, dot, want)
			}
		}
	}
	// Eigenvalues sorted descending.
	for i := 1; i < len(m.Variances); i++ {
		if m.Variances[i] > m.Variances[i-1]+1e-9 {
			t.Errorf("variances not sorted: %v", m.Variances)
		}
	}
}

func TestVarianceTotalPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	var data [][]float64
	for i := 0; i < 300; i++ {
		data = append(data, []float64{rng.NormFloat64(), rng.NormFloat64() * 2, rng.NormFloat64() * 3})
	}
	m, err := Fit(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Total variance equals the sum of per-dimension variances.
	var total float64
	for j := 0; j < 3; j++ {
		var mean, ss float64
		for _, row := range data {
			mean += row[j]
		}
		mean /= float64(len(data))
		for _, row := range data {
			d := row[j] - mean
			ss += d * d
		}
		total += ss / float64(len(data))
	}
	var eig float64
	for _, v := range m.Variances {
		eig += v
	}
	if math.Abs(total-eig) > 1e-6*total {
		t.Errorf("trace not preserved: %v vs %v", total, eig)
	}
}

func TestTransform(t *testing.T) {
	data := [][]float64{{1, 0}, {-1, 0}, {2, 0}, {-2, 0}}
	m, err := Fit(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Transform([]float64{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Abs(p[0])-3) > 1e-9 {
		t.Errorf("projection = %v, want +-3", p[0])
	}
	if _, err := m.Transform([]float64{1, 2, 3}); err == nil {
		t.Error("dimension mismatch: want error")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, 1); err == nil {
		t.Error("empty data: want error")
	}
	if _, err := Fit([][]float64{{}}, 1); err == nil {
		t.Error("zero dims: want error")
	}
	if _, err := Fit([][]float64{{1, 2}}, 3); err == nil {
		t.Error("k > d: want error")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, 1); err == nil {
		t.Error("ragged rows: want error")
	}
}
