package tde

import (
	"math"
	"math/rand"
	"testing"

	"nsync/internal/sigproc"
)

// TestFastPathMatchesNaive verifies the FFT/prefix-sum similarity array is
// numerically equivalent to the naive sliding method.
func TestFastPathMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	shapes := []struct {
		channels, nx, ny int
	}{
		{1, 100, 30},
		{1, 257, 100},
		{2, 300, 120},
		{6, 150, 50},
		{1, 64, 64}, // single position
	}
	for _, sh := range shapes {
		x := sigproc.New(100, sh.channels, sh.nx)
		y := sigproc.New(100, sh.channels, sh.ny)
		for c := 0; c < sh.channels; c++ {
			v := 0.0
			for i := 0; i < sh.nx; i++ {
				v += rng.NormFloat64()
				x.Data[c][i] = v
			}
			for i := 0; i < sh.ny; i++ {
				y.Data[c][i] = rng.NormFloat64()
			}
		}
		fast, err := New().SimilarityArray(x, y)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := New(WithoutFastPath()).SimilarityArray(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(naive) {
			t.Fatalf("lengths differ: %d vs %d", len(fast), len(naive))
		}
		for i := range fast {
			if math.Abs(fast[i]-naive[i]) > 1e-9 {
				t.Fatalf("shape %+v pos %d: fast %v vs naive %v", sh, i, fast[i], naive[i])
			}
		}
	}
}

// TestFastPathFFTBranch forces a problem size that takes the FFT branch of
// crossDotsInto and checks equivalence there too.
func TestFastPathFFTBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	nx, ny := 1200, 400 // nx*ny > 64k -> FFT branch
	x := sigproc.New(100, 1, nx)
	y := sigproc.New(100, 1, ny)
	for i := 0; i < nx; i++ {
		x.Data[0][i] = rng.NormFloat64()
	}
	copy(y.Data[0], x.Data[0][300:700])
	fast, err := New().SimilarityArray(x, y)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := New(WithoutFastPath()).SimilarityArray(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast {
		if math.Abs(fast[i]-naive[i]) > 1e-8 {
			t.Fatalf("pos %d: fast %v vs naive %v", i, fast[i], naive[i])
		}
	}
	// And the peak is exactly at the embedding offset.
	d, score, err := New().Delay(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d != 300 || score < 1-1e-9 {
		t.Errorf("fast Delay = %d score %v, want 300 / 1", d, score)
	}
}

func TestFastPathConstantWindows(t *testing.T) {
	// Constant x-windows and constant y must yield correlation 0 (the
	// naive path's convention), not NaN.
	x := sigproc.New(10, 1, 50)
	y := sigproc.New(10, 1, 10)
	fast, err := New().SimilarityArray(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fast {
		if v != 0 {
			t.Fatalf("constant-signal score[%d] = %v, want 0", i, v)
		}
	}
	// Constant y against varying x: still 0 by convention.
	for i := range x.Data[0] {
		x.Data[0][i] = float64(i)
	}
	fast, err = New().SimilarityArray(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fast {
		if v != 0 {
			t.Fatalf("constant-y score[%d] = %v, want 0", i, v)
		}
	}
}

// embeddedPair builds a random-walk haystack whose live lanes hide a noisy
// copy of the template at offset at, so delay estimates have one clear
// winner; lanes listed in constant get a constant template instead.
func embeddedPair(rng *rand.Rand, channels, nx, ny, at int, constant ...int) (*sigproc.Signal, *sigproc.Signal) {
	x, y := randomPair(rng, channels, nx, ny)
	for c := 0; c < channels; c++ {
		for i := range y.Data[c] {
			y.Data[c][i] = x.Data[c][at+i] + 0.1*rng.NormFloat64()
		}
	}
	for _, c := range constant {
		for i := range y.Data[c] {
			y.Data[c][i] = 3
		}
	}
	return x, y
}

// TestPackedKernelMatchesNaive covers the shapes the two-lane packed FFT
// correlation can get wrong: an odd live-lane count (the last lane rides
// alone), a constant-template lane between live ones (pairing skips it),
// nx an exact power of two (the FFT is exactly as long as x), nx == ny
// (a single position), and nx·ny just above the direct-evaluation cutoff.
// Scores must match the naive sliding method to 1e-9 and the plain and
// biased delay estimates must pick the same argmax.
func TestPackedKernelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	cases := []struct {
		name             string
		channels, nx, ny int
		at               int
		constant         []int
	}{
		{name: "odd live lanes", channels: 3, nx: 1500, ny: 500, at: 620},
		{name: "constant lane between live lanes", channels: 4, nx: 1200, ny: 400, at: 333, constant: []int{1}},
		{name: "only lane b constant", channels: 2, nx: 1200, ny: 400, at: 90, constant: []int{1}},
		{name: "nx power of two", channels: 2, nx: 1024, ny: 300, at: 700},
		{name: "nx equals ny", channels: 2, nx: 300, ny: 300, at: 0},
		{name: "just above direct cutoff", channels: 3, nx: 257, ny: 256, at: 1},
	}
	fast, naive := New(), New(WithoutFastPath())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.nx*tc.ny <= 64*1024 {
				t.Fatalf("shape %dx%d takes the direct branch", tc.nx, tc.ny)
			}
			x, y := embeddedPair(rng, tc.channels, tc.nx, tc.ny, tc.at, tc.constant...)
			got, err := fast.SimilarityArray(x, y)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.SimilarityArray(x, y)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("pos %d: packed %v vs naive %v", i, got[i], want[i])
				}
			}
			gd, _, err := fast.Delay(x, y)
			if err != nil {
				t.Fatal(err)
			}
			wd, _, err := naive.Delay(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if gd != wd || gd != tc.at {
				t.Errorf("Delay: packed %d, naive %d, embedded at %d", gd, wd, tc.at)
			}
			center := (tc.nx - tc.ny) / 3
			gb, _, err := fast.DelayBiasedAt(x, y, center, 200)
			if err != nil {
				t.Fatal(err)
			}
			wb, _, err := naive.DelayBiasedAt(x, y, center, 200)
			if err != nil {
				t.Fatal(err)
			}
			if gb != wb {
				t.Errorf("DelayBiasedAt: packed %d, naive %d", gb, wb)
			}
		})
	}
}

// productionShapes are the similarity-array shapes DWM runs per window at
// the CI scale's defaults (lanes × search samples / window samples).
var productionShapes = []struct {
	name             string
	channels, nx, ny int
}{
	{"ACC", 6, 3200, 1600},
	{"MAG", 3, 800, 400},
	{"AUD", 2, 38400, 19200},
}

func BenchmarkSimilarityArray(b *testing.B) {
	for _, sh := range productionShapes {
		b.Run(sh.name, func(b *testing.B) {
			x, y := randomPair(rand.New(rand.NewSource(93)), sh.channels, sh.nx, sh.ny)
			est := New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.SimilarityArray(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimilarityArrayNaive is the O(Nx*Ny) sliding method at the MAG
// shape, the reference the fast path is measured against.
func BenchmarkSimilarityArrayNaive(b *testing.B) {
	x, y := randomPair(rand.New(rand.NewSource(92)), 3, 800, 400)
	est := New(WithoutFastPath())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SimilarityArray(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
