package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strconv"
	"testing"
)

// naiveDFT is the O(n^2) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			ang := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			sum += x[i] * cmplx.Rect(1, ang)
		}
		out[k] = sum
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 60, 64, 100, 128} {
		x := randComplex(rng, n)
		got := Forward(x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8 {
			t.Errorf("n=%d: max error %v vs naive DFT", n, e)
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 6, 8, 13, 64, 100, 255, 256} {
		x := randComplex(rng, n)
		y := Inverse(Forward(x))
		if e := maxErr(x, y); e > 1e-9 {
			t.Errorf("n=%d: round-trip error %v", n, e)
		}
	}
}

func TestForwardDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	orig := append([]complex128(nil), x...)
	Forward(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("Forward mutated its input")
		}
	}
}

func TestForwardRealKnownSpectrum(t *testing.T) {
	// A pure cosine at bin 3 of a 32-point transform.
	n := 32
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 3 * float64(i) / float64(n))
	}
	spec := ForwardRealInto(nil, x)
	if len(spec) != n/2+1 {
		t.Fatalf("spectrum length = %d, want %d", len(spec), n/2+1)
	}
	for k, v := range spec {
		want := 0.0
		if k == 3 {
			want = float64(n) / 2
		}
		if m := cmplx.Abs(v); math.Abs(m-want) > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want %v", k, m, want)
		}
	}
}

func TestForwardRealDCComponent(t *testing.T) {
	x := []float64{2, 2, 2, 2}
	spec := ForwardRealInto(nil, x)
	if math.Abs(cmplx.Abs(spec[0])-8) > 1e-12 {
		t.Errorf("DC bin = %v, want 8", spec[0])
	}
	for k := 1; k < len(spec); k++ {
		if cmplx.Abs(spec[k]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", k, spec[k])
		}
	}
}

func TestForwardRealEmpty(t *testing.T) {
	if got := ForwardRealInto(nil, nil); got != nil {
		t.Errorf("ForwardRealInto(nil, nil) = %v, want nil", got)
	}
}

// Parseval's theorem: sum |x|^2 == (1/N) sum |X|^2.
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{8, 15, 64, 99} {
		x := randComplex(rng, n)
		spec := Forward(x)
		var timeE, freqE float64
		for i := range x {
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		for i := range spec {
			freqE += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
		}
		freqE /= float64(n)
		if math.Abs(timeE-freqE) > 1e-8*math.Max(1, timeE) {
			t.Errorf("n=%d: Parseval violated: %v vs %v", n, timeE, freqE)
		}
	}
}

// Linearity: FFT(a*x + y) = a*FFT(x) + FFT(y).
func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 48 // non-power-of-two exercises Bluestein
	x := randComplex(rng, n)
	y := randComplex(rng, n)
	a := complex(2.5, -1.25)
	combined := make([]complex128, n)
	for i := range combined {
		combined[i] = a*x[i] + y[i]
	}
	got := Forward(combined)
	fx, fy := Forward(x), Forward(y)
	want := make([]complex128, n)
	for i := range want {
		want[i] = a*fx[i] + fy[i]
	}
	if e := maxErr(got, want); e > 1e-8 {
		t.Errorf("linearity error %v", e)
	}
}

func TestNextPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.in); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func BenchmarkForward1024(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	x := randComplex(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

// BenchmarkRadix2 runs the in-place power-of-two kernel at the sizes
// Bluestein pads the CI scale's STFT frames to (MAG 20 → 64, ACC 50 → 128,
// AUD 200 → 512, EPT 400 → 1024), the sizes the TDE correlation uses (ACC
// 4096, AUD 65536), and one size up, where the array no longer fits in a
// typical L2 cache.
func BenchmarkRadix2(b *testing.B) {
	for _, n := range []int{64, 128, 512, 1024, 4096, 65536, 131072} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			src := randComplex(rand.New(rand.NewSource(16)), n)
			x := make([]complex128, n)
			InPlace(x) // warm the twiddle table
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, src) // keeps magnitudes from growing to Inf across iterations
				InPlace(x)
			}
		})
	}
}

// BenchmarkBluestein runs the STFT's real-input transform at the
// non-power-of-two frame lengths the CI scale's spectrograms use.
func BenchmarkBluestein(b *testing.B) {
	for _, n := range []int{50, 200, 400} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(15))
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			dst := ForwardRealInto(nil, x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = ForwardRealInto(dst[:cap(dst)], x)
			}
		})
	}
}
