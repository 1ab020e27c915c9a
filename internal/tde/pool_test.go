package tde

import (
	"math/rand"
	"testing"

	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

// randomPair builds a random-walk haystack and a noise template with the
// fast path's FFT branch reachable at the larger shapes.
func randomPair(rng *rand.Rand, channels, nx, ny int) (*sigproc.Signal, *sigproc.Signal) {
	x := sigproc.New(100, channels, nx)
	y := sigproc.New(100, channels, ny)
	for c := 0; c < channels; c++ {
		v := 0.0
		for i := 0; i < nx; i++ {
			v += rng.NormFloat64()
			x.Data[c][i] = v
		}
		for i := 0; i < ny; i++ {
			y.Data[c][i] = rng.NormFloat64()
		}
	}
	return x, y
}

// TestPooledEquivalence verifies every pooled TDE entry point is
// byte-identical to the allocating path: each case runs twice with pooling
// on and poison on (so the second run consumes poisoned recycled buffers —
// any read of recycled contents becomes NaN-loud), then once with pooling
// disabled, and all outputs must match exactly. Covers the similarity
// array and plain and biased delays (on a plain x and through a prepared
// Reference), over shapes that exercise both the direct and the FFT
// cross-correlation branches.
func TestPooledEquivalence(t *testing.T) {
	scratch.SetPoison(true)
	defer scratch.SetPoison(false)
	rng := rand.New(rand.NewSource(417))
	shapes := []struct {
		channels, nx, ny int
	}{
		{1, 120, 40},
		{2, 300, 100},
		{1, 1200, 400}, // nx*ny > 64k: FFT branch, non-pow2 bluestein sizes
	}
	est := New()
	naive := New(WithoutFastPath())
	for _, sh := range shapes {
		x, y := randomPair(rng, sh.channels, sh.nx, sh.ny)

		type outcome struct {
			sim             []float64
			d, db, dba, dbi int
			s, sb, sba, sbi float64
		}
		compute := func() outcome {
			var o outcome
			var err error
			o.sim, err = est.SimilarityArray(x, y)
			if err != nil {
				t.Fatal(err)
			}
			// Exercise the naive path's pooled window views too.
			if _, err := naive.SimilarityArray(x, y); err != nil {
				t.Fatal(err)
			}
			o.d, o.s, err = est.Delay(x, y)
			if err != nil {
				t.Fatal(err)
			}
			o.db, o.sb, err = est.DelayBiased(x, y, 25)
			if err != nil {
				t.Fatal(err)
			}
			o.dba, o.sba, err = est.DelayBiasedAt(x, y, 10, 25)
			if err != nil {
				t.Fatal(err)
			}
			// At the FFT-branch shape this reads cached block spectra.
			o.dbi, o.sbi, err = est.DelayBiasedIn(est.Prepare(x, sh.nx, sh.ny), 0, sh.nx, y, 10, 25)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}

		compute() // warm the pools so the next run consumes recycled buffers
		pooled := compute()

		scratch.SetEnabled(false)
		fresh := compute()
		scratch.SetEnabled(true)

		if pooled.d != fresh.d || pooled.s != fresh.s {
			t.Errorf("shape %+v: Delay pooled (%d, %v) != fresh (%d, %v)", sh, pooled.d, pooled.s, fresh.d, fresh.s)
		}
		if pooled.db != fresh.db || pooled.sb != fresh.sb {
			t.Errorf("shape %+v: DelayBiased pooled (%d, %v) != fresh (%d, %v)", sh, pooled.db, pooled.sb, fresh.db, fresh.sb)
		}
		if pooled.dba != fresh.dba || pooled.sba != fresh.sba {
			t.Errorf("shape %+v: DelayBiasedAt pooled (%d, %v) != fresh (%d, %v)", sh, pooled.dba, pooled.sba, fresh.dba, fresh.sba)
		}
		if pooled.dbi != fresh.dbi || pooled.sbi != fresh.sbi {
			t.Errorf("shape %+v: DelayBiasedIn pooled (%d, %v) != fresh (%d, %v)", sh, pooled.dbi, pooled.sbi, fresh.dbi, fresh.sbi)
		}
		mustEqual(t, "SimilarityArray", pooled.sim, fresh.sim)
	}
}

func mustEqual(t *testing.T, what string, a, b []float64) {
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

// TestSimilarityArrayDoesNotAliasScratch is the aliasing regression: the
// slice SimilarityArray hands out must stay intact after further pooled
// calls recycle the internal buffers it was computed in.
func TestSimilarityArrayDoesNotAliasScratch(t *testing.T) {
	scratch.SetPoison(true)
	defer scratch.SetPoison(false)
	rng := rand.New(rand.NewSource(418))
	x, y := randomPair(rng, 2, 300, 100)
	est := New()
	s, err := est.SimilarityArray(x, y)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), s...)
	// Recycle the pool several times; if s aliased pooled scratch these
	// calls would scribble (poisoned NaNs or new scores) over it.
	for i := 0; i < 3; i++ {
		if _, _, err := est.Delay(x, y); err != nil {
			t.Fatal(err)
		}
		if _, err := est.SimilarityArray(x, y); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s {
		if s[i] != snapshot[i] {
			t.Fatalf("returned scores[%d] changed from %v to %v after later pooled calls: result aliases scratch", i, snapshot[i], s[i])
		}
	}
}
