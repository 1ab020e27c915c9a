package dtw

import (
	"math/rand"
	"testing"

	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

func randomWalk(rng *rand.Rand, channels, n int) *sigproc.Signal {
	s := sigproc.New(100, channels, n)
	for c := 0; c < channels; c++ {
		v := 0.0
		for i := 0; i < n; i++ {
			v += rng.NormFloat64()
			s.Data[c][i] = v
		}
	}
	return s
}

// TestPooledEquivalence verifies the pooled DTW paths — exact DP, the
// FastDTW recursion with its shared window and halved copies, and the
// HDisp/VDist extractors — produce byte-identical results to the
// allocating paths. Poison is on so recycled-buffer reads would turn NaN.
func TestPooledEquivalence(t *testing.T) {
	scratch.SetPoison(true)
	defer scratch.SetPoison(false)
	rng := rand.New(rand.NewSource(99))
	a := randomWalk(rng, 2, 180)
	b := randomWalk(rng, 2, 220)

	type outcome struct {
		exact, fast  *Result
		hdisp, vdist []float64
	}
	compute := func() outcome {
		var o outcome
		var err error
		o.exact, err = Distance(a, b, sigproc.Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		o.fast, err = Fast(a, b, sigproc.Euclidean, 1)
		if err != nil {
			t.Fatal(err)
		}
		o.hdisp = HDisp(o.fast.Path, a.Len())
		o.vdist = VDist(o.fast.Path, a, b, sigproc.Euclidean)
		return o
	}

	compute() // warm the pools
	pooled := compute()
	scratch.SetEnabled(false)
	fresh := compute()
	scratch.SetEnabled(true)

	comparePaths := func(what string, p, f *Result) {
		t.Helper()
		if p.Distance != f.Distance {
			t.Errorf("%s: pooled distance %v != fresh %v", what, p.Distance, f.Distance)
		}
		if len(p.Path) != len(f.Path) {
			t.Fatalf("%s: path lengths %d vs %d", what, len(p.Path), len(f.Path))
		}
		for i := range p.Path {
			if p.Path[i] != f.Path[i] {
				t.Fatalf("%s: path[%d] pooled %v != fresh %v", what, i, p.Path[i], f.Path[i])
			}
		}
	}
	comparePaths("Distance", pooled.exact, fresh.exact)
	comparePaths("Fast", pooled.fast, fresh.fast)
	mustEqualFloats(t, "HDisp", pooled.hdisp, fresh.hdisp)
	mustEqualFloats(t, "VDist", pooled.vdist, fresh.vdist)
}

func mustEqualFloats(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths differ: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d]: pooled %v != fresh %v", what, i, a[i], b[i])
		}
	}
}

// TestResultDoesNotAliasScratch: the Path, HDisp, and VDist slices handed
// to callers must survive later pooled alignments recycling the scratch
// they were computed with.
func TestResultDoesNotAliasScratch(t *testing.T) {
	scratch.SetPoison(true)
	defer scratch.SetPoison(false)
	rng := rand.New(rand.NewSource(100))
	a := randomWalk(rng, 2, 150)
	b := randomWalk(rng, 2, 170)
	res, err := Fast(a, b, sigproc.Euclidean, 1)
	if err != nil {
		t.Fatal(err)
	}
	hdisp := HDisp(res.Path, a.Len())
	vdist := VDist(res.Path, a, b, sigproc.Euclidean)
	pathSnap := append([]Pair(nil), res.Path...)
	hdispSnap := append([]float64(nil), hdisp...)
	vdistSnap := append([]float64(nil), vdist...)
	for i := 0; i < 3; i++ {
		if _, err := Fast(b, a, sigproc.Euclidean, 1); err != nil {
			t.Fatal(err)
		}
		HDisp(res.Path, a.Len())
		VDist(res.Path, a, b, sigproc.Euclidean)
	}
	for i := range pathSnap {
		if res.Path[i] != pathSnap[i] {
			t.Fatalf("Path[%d] changed after later pooled calls", i)
		}
	}
	mustEqualFloats(t, "HDisp stability", hdisp, hdispSnap)
	mustEqualFloats(t, "VDist stability", vdist, vdistSnap)
}
