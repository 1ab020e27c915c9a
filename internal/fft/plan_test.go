package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// recurrenceRadix2 is the radix-2 kernel as it ran before twiddle tables:
// the twiddle is advanced by w *= wl inside every butterfly block. The
// table-driven kernel must reproduce it bit for bit.
func recurrenceRadix2(x []complex128, inverse bool) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// uncachedBluestein is the Bluestein transform as it ran before plans: the
// chirp and the kernel spectrum are rebuilt on every call.
func uncachedBluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := int64(k) * int64(k) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	b[0] = cmplx.Conj(chirp[0])
	for k := 1; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
		b[m-k] = b[k]
	}
	recurrenceRadix2(a, false)
	recurrenceRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	recurrenceRadix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
}

// resetPlans drops every cached plan so a test starts cold.
func resetPlans() {
	twiddleTables[0].Store(nil)
	twiddleTables[1].Store(nil)
	for i := range swapLists {
		swapLists[i].Store(nil)
	}
	blueMu.Lock()
	clear(bluePlans)
	blueMu.Unlock()
}

func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: bin %d = %v, want %v (bit-exact)", what, i, g, w)
		}
	}
}

// TestRadix2MatchesRecurrence pins the twiddle table to the recurrence it
// replaced, byte for byte, at every power of two up to 2^17 in both
// directions. Sizes run largest first and then smallest first, so both the
// prefix-of-a-larger-table and the grow-the-table paths are compared.
func TestRadix2MatchesRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var sizes []int
	for n := 2; n <= 1<<17; n <<= 1 {
		sizes = append(sizes, n)
	}
	check := func(n int) {
		for _, inverse := range []bool{false, true} {
			x := randComplex(rng, n)
			want := append([]complex128(nil), x...)
			recurrenceRadix2(want, inverse)
			radix2(x, inverse)
			sameBits(t, "radix2", x, want)
		}
	}
	resetPlans()
	for i := len(sizes) - 1; i >= 0; i-- {
		check(sizes[i])
	}
	resetPlans()
	for _, n := range sizes {
		check(n)
	}
}

// loopRadix2 is the radix-2 kernel as it ran before the cached swap list
// and the straight-line first pair of stages: the bit-reversal permutation
// is recomputed index by index, and every pair of stages, the first
// included, reslices the block's quarters.
func loopRadix2(x []complex128, inverse bool) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := twiddles(n, inverse)
	half := 1
	if bits.TrailingZeros(uint(n))%2 == 1 {
		w := tw[:1]
		for i := 0; i < n; i += 2 {
			u := x[i]
			v := x[i+1] * w[0]
			x[i] = u + v
			x[i+1] = u - v
		}
		half = 2
	}
	for ; half < n; half <<= 2 {
		w1 := tw[half-1 : 2*half-1]
		w2 := tw[2*half-1 : 4*half-1]
		w2lo, w2hi := w2[:len(w1)], w2[len(w1):][:len(w1)]
		for i := 0; i < n; i += 4 * half {
			q0 := x[i : i+half]
			q1 := x[i+half : i+2*half]
			q2 := x[i+2*half : i+3*half]
			q3 := x[i+3*half : i+4*half]
			q0, q1, q2, q3 = q0[:len(w1)], q1[:len(w1)], q2[:len(w1)], q3[:len(w1)]
			for j, wj := range w1 {
				a, b := q0[j], q1[j]*wj
				a, b = a+b, a-b
				c, d := q2[j], q3[j]*wj
				c, d = c+d, c-d
				c *= w2lo[j]
				d *= w2hi[j]
				q0[j], q2[j] = a+c, a-c
				q1[j], q3[j] = b+d, b-d
			}
		}
	}
}

// specialComplex draws each part from signed zeros, infinities, NaN and a
// few finite values, so that sign-of-zero and NaN/Inf propagation through
// every butterfly (including the multiplications by the exact-looking
// twiddle 1+0i) are compared too.
func specialComplex(rng *rand.Rand, n int) []complex128 {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -2.5, 1e-310}
	out := make([]complex128, n)
	for i := range out {
		re, im := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		if rng.Intn(2) == 0 {
			re = rng.NormFloat64()
		}
		out[i] = complex(re, im)
	}
	return out
}

// sameBitsOrNaN is sameBits for outputs of NaN inputs: every value must
// match bit for bit, except that a NaN matches any NaN. IEEE 754 leaves
// open which payload an operation on two NaNs returns, and on amd64 it is
// the first operand's, so it follows the operand order the compiler picks
// for a commutative add or multiply, not the algorithm. Where the
// reference has a NaN the kernel must have one too, and vice versa.
func sameBitsOrNaN(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	same := func(g, w float64) bool {
		if math.IsNaN(g) || math.IsNaN(w) {
			return math.IsNaN(g) && math.IsNaN(w)
		}
		return math.Float64bits(g) == math.Float64bits(w)
	}
	for i := range want {
		g, w := got[i], want[i]
		if !same(real(g), real(w)) || !same(imag(g), imag(w)) {
			t.Fatalf("%s: bin %d = %v, want %v (bit-exact)", what, i, g, w)
		}
	}
}

// TestRadix2BitExact pins radix2 to the loop kernel it replaced, bit for
// bit, at every power of two from 2 to 2^17 in both directions, on random
// inputs and on inputs full of ±0, ±Inf and NaN. The caches start cold, so
// every size's swap list is built by the call under test.
func TestRadix2BitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	resetPlans()
	for n := 2; n <= 1<<17; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			what := fmt.Sprintf("n=%d inverse=%v", n, inverse)
			x := randComplex(rng, n)
			want := append([]complex128(nil), x...)
			loopRadix2(want, inverse)
			radix2(x, inverse)
			sameBits(t, what, x, want)

			x = specialComplex(rng, n)
			want = append(want[:0], x...)
			loopRadix2(want, inverse)
			radix2(x, inverse)
			sameBitsOrNaN(t, what+" special", x, want)
		}
	}
}

// TestInPlaceAllocs pins a warm power-of-two transform at zero
// allocations: the twiddles and the swap list are cached, the transform
// runs in the caller's buffer.
func TestInPlaceAllocs(t *testing.T) {
	for _, n := range []int{64, 1024, 65536} {
		x := randComplex(rand.New(rand.NewSource(25)), n)
		InPlace(x) // warm the caches
		if allocs := testing.AllocsPerRun(10, func() { InPlace(x) }); allocs != 0 {
			t.Errorf("n=%d: InPlace allocates %v objects per call, want 0", n, allocs)
		}
	}
}

// TestBluesteinPlanMatchesFresh: at the STFT frame lengths, a cached plan
// equals a freshly built one, and a transform through the cache equals the
// pre-plan algorithm, byte for byte.
func TestBluesteinPlanMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	resetPlans()
	for _, n := range []int{20, 50, 200, 400} {
		for _, inverse := range []bool{false, true} {
			bluesteinPlan(n, inverse) // warm: the transforms below hit the cache
			cached, fresh := bluesteinPlan(n, inverse), newBluePlan(n, inverse)
			sameBits(t, "chirp", cached.chirp, fresh.chirp)
			sameBits(t, "kernel", cached.kernel, fresh.kernel)

			x := randComplex(rng, n)
			want := append([]complex128(nil), x...)
			uncachedBluestein(want, inverse)
			transform(x, inverse)
			sameBits(t, "bluestein", x, want)
		}
	}
}

// TestBluesteinPlanCacheBounded: sweeping more lengths than the cache
// holds evicts instead of growing, and evicted lengths still transform
// correctly when they come back.
func TestBluesteinPlanCacheBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	resetPlans()
	for n := 3; n < 3+4*maxBluePlans; n += 2 { // odd: never a power of two
		Forward(randComplex(rng, n))
	}
	blueMu.Lock()
	size := len(bluePlans)
	blueMu.Unlock()
	if size > maxBluePlans {
		t.Fatalf("plan cache holds %d plans, bound is %d", size, maxBluePlans)
	}
	x := randComplex(rng, 5)
	if e := maxErr(Forward(x), naiveDFT(x)); e > 1e-9 {
		t.Errorf("n=5 after eviction: max error %v", e)
	}
}

// TestConcurrentMixedSizes runs radix-2 and Bluestein transforms of many
// sizes from several goroutines against cold caches (run it under -race):
// every result must equal the serial one bit for bit.
func TestConcurrentMixedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sizes := []int{16, 20, 50, 64, 200, 256, 400, 1000, 1024, 4096}
	inputs := make([][]complex128, len(sizes))
	wants := make([][]complex128, len(sizes))
	for i, n := range sizes {
		inputs[i] = randComplex(rng, n)
		wants[i] = Forward(inputs[i])
	}
	resetPlans()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range sizes {
					i := (k + g) % len(sizes)
					got := Forward(inputs[i])
					back := Inverse(got)
					for j := range wants[i] {
						if got[j] != wants[i][j] {
							t.Errorf("n=%d: concurrent transform differs at bin %d", sizes[i], j)
							return
						}
					}
					if e := maxErr(back, inputs[i]); e > 1e-9 {
						t.Errorf("n=%d: concurrent round-trip error %v", sizes[i], e)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
