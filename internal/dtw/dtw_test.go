package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nsync/internal/sigproc"
)

func sig(rate float64, vals ...float64) *sigproc.Signal {
	return sigproc.FromSamples(rate, vals)
}

func noise2(rng *rand.Rand, rate float64, n int) *sigproc.Signal {
	s := sigproc.New(rate, 2, n)
	for c := range s.Data {
		for i := 0; i < n; i++ {
			s.Data[c][i] = rng.NormFloat64()
		}
	}
	return s
}

// abs1 is an absolute-difference metric on 1-channel point vectors.
func abs1(u, v []float64) float64 { return math.Abs(u[0] - v[0]) }

func pathValid(t *testing.T, p []Pair, n, m int) {
	t.Helper()
	if len(p) == 0 {
		t.Fatal("empty path")
	}
	if p[0] != (Pair{0, 0}) {
		t.Fatalf("path starts at %v, want (0,0)", p[0])
	}
	if p[len(p)-1] != (Pair{n - 1, m - 1}) {
		t.Fatalf("path ends at %v, want (%d,%d)", p[len(p)-1], n-1, m-1)
	}
	for k := 1; k < len(p); k++ {
		di, dj := p[k].I-p[k-1].I, p[k].J-p[k-1].J
		if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
			t.Fatalf("invalid step %v -> %v", p[k-1], p[k])
		}
	}
}

func TestDistanceIdenticalSignals(t *testing.T) {
	a := sig(1, 1, 2, 3, 2, 1, 4, 5)
	res, err := Distance(a, a, abs1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 0 {
		t.Errorf("self DTW distance = %v, want 0", res.Distance)
	}
	pathValid(t, res.Path, a.Len(), a.Len())
	for _, p := range res.Path {
		if p.I != p.J {
			t.Errorf("self path should be diagonal, got %v", p)
		}
	}
}

func TestDistanceKnownAlignment(t *testing.T) {
	// b stretches the middle of a; DTW should absorb it at zero cost.
	a := sig(1, 0, 1, 2, 3, 0)
	b := sig(1, 0, 1, 2, 2, 2, 3, 0)
	res, err := Distance(a, b, abs1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 0 {
		t.Errorf("DTW distance = %v, want 0 (pure time warp)", res.Distance)
	}
	pathValid(t, res.Path, a.Len(), b.Len())
}

func TestDistanceCost(t *testing.T) {
	a := sig(1, 0, 0)
	b := sig(1, 1, 1)
	res, err := Distance(a, b, abs1)
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal path: two cells, each cost 1.
	if res.Distance != 2 {
		t.Errorf("DTW distance = %v, want 2", res.Distance)
	}
}

func TestDistanceErrors(t *testing.T) {
	a := sig(1, 1, 2)
	if _, err := Distance(a, sigproc.New(1, 2, 5), abs1); err == nil {
		t.Error("channel mismatch: want error")
	}
	if _, err := Distance(a, &sigproc.Signal{Rate: 1}, abs1); err == nil {
		t.Error("empty signal: want error")
	}
	if _, err := Fast(a, a, abs1, -1); err == nil {
		t.Error("negative radius: want error")
	}
}

func TestFastMatchesExactOnWarpedSignals(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	// Smooth signal with a mild warp: FastDTW should find a near-optimal path.
	n := 200
	a := sigproc.New(1, 1, n)
	for i := 0; i < n; i++ {
		a.Data[0][i] = math.Sin(float64(i)/7) + 0.05*rng.NormFloat64()
	}
	b := sigproc.New(1, 1, n)
	for i := 0; i < n; i++ {
		j := float64(i) * float64(n-12) / float64(n)
		k := int(j)
		frac := j - float64(k)
		if k >= n-1 {
			k, frac = n-2, 1
		}
		b.Data[0][i] = a.Data[0][k]*(1-frac) + a.Data[0][k+1]*frac
	}
	exact, err := Distance(a, b, abs1)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Fast(a, b, abs1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pathValid(t, approx.Path, a.Len(), b.Len())
	if approx.Distance < exact.Distance-1e-9 {
		t.Errorf("FastDTW beat exact DTW: %v < %v", approx.Distance, exact.Distance)
	}
	if approx.Distance > exact.Distance*1.5+1.0 {
		t.Errorf("FastDTW too far from optimal: %v vs %v", approx.Distance, exact.Distance)
	}
}

func TestFastIdenticalSignalsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := noise2(rng, 10, 300)
	res, err := Fast(a, a, sigproc.Euclidean, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 0 {
		t.Errorf("Fast self distance = %v, want 0", res.Distance)
	}
	pathValid(t, res.Path, a.Len(), a.Len())
}

// Property: FastDTW path is always valid (monotone, contiguous, correct
// endpoints) and its cost is >= the exact DTW cost.
func TestFastPathPropertyValid(t *testing.T) {
	f := func(seed int64, radius8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		m := 40 + rng.Intn(60)
		a := noise2(rng, 1, n)
		b := noise2(rng, 1, m)
		radius := int(radius8 % 3)
		res, err := Fast(a, b, sigproc.Euclidean, radius)
		if err != nil {
			return false
		}
		p := res.Path
		if p[0] != (Pair{0, 0}) || p[len(p)-1] != (Pair{n - 1, m - 1}) {
			return false
		}
		for k := 1; k < len(p); k++ {
			di, dj := p[k].I-p[k-1].I, p[k].J-p[k-1].J
			if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
				return false
			}
		}
		exact, err := Distance(a, b, sigproc.Euclidean)
		if err != nil {
			return false
		}
		return res.Distance >= exact.Distance-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestHDispFromPath(t *testing.T) {
	path := []Pair{{0, 0}, {1, 1}, {1, 2}, {2, 3}, {3, 3}}
	h := HDisp(path, 4)
	want := []float64{0, 0.5, 1, 0}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-12 {
			t.Errorf("HDisp[%d] = %v, want %v", i, h[i], want[i])
		}
	}
}

func TestHDispSelfAlignmentZero(t *testing.T) {
	a := sig(1, 1, 2, 3, 4, 5, 4, 3)
	res, err := Distance(a, a, abs1)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range HDisp(res.Path, a.Len()) {
		if h != 0 {
			t.Errorf("self HDisp[%d] = %v, want 0", i, h)
		}
	}
}

func TestVDist(t *testing.T) {
	a := sig(1, 0, 1, 2)
	b := sig(1, 0, 1, 5)
	path := []Pair{{0, 0}, {1, 1}, {2, 2}}
	v := VDist(path, a, b, abs1)
	want := []float64{0, 0, 3}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("VDist[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestVDistAveragesMultipleTuples(t *testing.T) {
	a := sig(1, 0, 5)
	b := sig(1, 1, 3)
	path := []Pair{{0, 0}, {1, 0}, {1, 1}} // a[1] pairs with b[0] and b[1]
	v := VDist(path, a, b, abs1)
	if v[1] != 3 { // (|5-1| + |5-3|) / 2
		t.Errorf("VDist[1] = %v, want 3", v[1])
	}
}

func TestHalveOddLength(t *testing.T) {
	x := [][]float64{{1}, {3}, {10}}
	h := halveInto(&rowsBuf{}, x)
	if len(h) != 2 || h[0][0] != 2 || h[1][0] != 10 {
		t.Errorf("halveInto = %v", h)
	}
	if got := halveInto(&rowsBuf{}, nil); got != nil {
		t.Errorf("halveInto(nil) = %v, want nil", got)
	}
}

func TestTranspose(t *testing.T) {
	s := &sigproc.Signal{Rate: 1, Data: [][]float64{{1, 2}, {3, 4}}}
	tr := transposeInto(&rowsBuf{}, s)
	if tr[0][0] != 1 || tr[0][1] != 3 || tr[1][0] != 2 || tr[1][1] != 4 {
		t.Errorf("transposeInto = %v", tr)
	}
}

func TestAsymmetricLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := noise2(rng, 1, 50)
	b := noise2(rng, 1, 150)
	res, err := Fast(a, b, sigproc.Euclidean, 1)
	if err != nil {
		t.Fatal(err)
	}
	pathValid(t, res.Path, 50, 150)
}

// TestHDispCarriesUncoveredRows: rows a coarse/truncated path skips must
// inherit the nearest covered row's displacement. Pre-fix they read 0 —
// "perfectly aligned" — which downstream discriminators treat as the
// strongest possible benign evidence.
func TestHDispCarriesUncoveredRows(t *testing.T) {
	path := []Pair{{0, 2}, {2, 3}, {3, 6}, {5, 7}} // rows 1 and 4 skipped
	h := HDisp(path, 6)
	// Ties between equally distant covered rows resolve to the earlier row.
	want := []float64{2, 2, 1, 3, 3, 2}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("HDisp[%d] = %v, want %v", i, h[i], want[i])
		}
	}
}

func TestHDispLeadingAndTrailingUncovered(t *testing.T) {
	h := HDisp([]Pair{{2, 5}}, 4) // only row 2 covered
	want := []float64{3, 3, 3, 3}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("HDisp[%d] = %v, want %v", i, h[i], want[i])
		}
	}
	// A path covering nothing leaves zeros (nothing to carry).
	for i, v := range HDisp([]Pair{{9, 9}}, 3) {
		if v != 0 {
			t.Errorf("empty-coverage HDisp[%d] = %v, want 0", i, v)
		}
	}
}

func TestVDistCarriesUncoveredRows(t *testing.T) {
	a := sig(1, 0, 1, 2)
	b := sig(1, 4, 1, 5)
	path := []Pair{{0, 0}, {2, 2}} // row 1 skipped
	v := VDist(path, a, b, abs1)
	want := []float64{4, 4, 3} // row 1 carries row 0 (earlier on tie), not 0
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("VDist[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}
