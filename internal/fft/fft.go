// Package fft implements the discrete Fourier transform with an iterative
// radix-2 Cooley-Tukey kernel and Bluestein's algorithm for arbitrary
// lengths. It is the numerical substrate of the STFT/spectrogram pipeline
// (Table III of the paper) and of the TDE fast path.
//
// Everything about a transform that does not depend on its input — the
// radix-2 twiddle factors and the Bluestein chirp and kernel spectrum — is
// built once per size and direction and cached process-wide, with the same
// arithmetic a per-call computation would do, so cached transforms are
// bit-identical to uncached ones.
package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"

	"nsync/internal/scratch"
)

// Forward computes the DFT of x (any length) and returns a new slice.
//
//	X[k] = sum_n x[n] * exp(-2*pi*i*k*n/N)
func Forward(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	transform(out, false)
	return out
}

// InPlace computes the DFT of x in place, overwriting it. It is Forward
// without the output allocation, for hot paths that own a reusable buffer.
func InPlace(x []complex128) { transform(x, false) }

// Inverse computes the inverse DFT of x (any length), including the 1/N
// normalization, and returns a new slice.
func Inverse(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	inverseInPlace(out)
	return out
}

// InverseInPlace computes the normalized inverse DFT of x in place,
// overwriting it.
func InverseInPlace(x []complex128) { inverseInPlace(x) }

func inverseInPlace(x []complex128) {
	transform(x, true)
	n := float64(len(x))
	if n > 0 {
		for i := range x {
			x[i] /= complex(n, 0)
		}
	}
}

// ForwardReal computes the DFT of a real input and returns the first
// N/2+1 bins (the remainder is conjugate-symmetric and carries no extra
// information for real signals).
func ForwardReal(x []float64) []complex128 {
	return ForwardRealInto(nil, x)
}

// ForwardRealInto is ForwardReal writing into dst's backing array when it
// has the capacity (allocating otherwise). The returned slice aliases dst;
// the caller owns it until the next call with the same dst.
func ForwardRealInto(dst []complex128, x []float64) []complex128 {
	if len(x) == 0 {
		return nil
	}
	buf := scratch.Resize(dst, len(x))
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	transform(buf, false)
	return buf[:len(buf)/2+1]
}

// Magnitudes returns |X[k]| for every bin.
func Magnitudes(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// transform runs an in-place DFT (or inverse DFT without normalization).
func transform(x []complex128, inverse bool) {
	n := len(x)
	switch {
	case n <= 1:
	case n&(n-1) == 0:
		radix2(x, inverse)
	default:
		bluestein(x, inverse)
	}
}

// radix2 is the iterative in-place Cooley-Tukey FFT for power-of-two sizes.
// Its twiddles come from the cached per-direction table (see twiddles).
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
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
	for half := 1; half < n; half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for i := 0; i < n; i += 2 * half {
			lo, hi := x[i:i+half], x[i+half:i+2*half]
			for j, wj := range w {
				u := lo[j]
				v := hi[j] * wj
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
}

// twiddleTables caches, per direction, the radix-2 twiddle factors. The
// stage of butterfly half-length h keeps its h factors at [h-1, 2h-1), and
// a stage's factors do not depend on the transform size, so the table for
// n holds every smaller power of two as a prefix: one table per direction,
// grown to the largest size seen, serves every size.
var twiddleTables [2]atomic.Pointer[[]complex128]

// twiddles returns the n-1 twiddle factors of an n-point radix-2 transform
// (n a power of two, n >= 2), building and caching them on first use.
// Each stage is built by the recurrence w₀ = 1, wⱼ₊₁ = wⱼ·exp(±2πi/length),
// not by evaluating each factor directly: the exact spectrogram values,
// and through them the detection thresholds pinned by the benchmark's
// digests, depend on these factors bit for bit.
func twiddles(n int, inverse bool) []complex128 {
	slot := &twiddleTables[0]
	sign := -1.0
	if inverse {
		slot, sign = &twiddleTables[1], 1.0
	}
	if tw := slot.Load(); tw != nil && len(*tw) >= n-1 {
		return (*tw)[:n-1]
	}
	tw := make([]complex128, n-1)
	for length := 2; length <= n; length <<= 1 {
		wl := cmplx.Rect(1, sign*2*math.Pi/float64(length))
		stage := tw[length/2-1 : length-1]
		w := complex(1, 0)
		for j := range stage {
			stage[j] = w
			w *= wl
		}
	}
	// Concurrent builders produce identical prefixes; keep the largest.
	for {
		cur := slot.Load()
		if cur != nil && len(*cur) >= len(tw) {
			break
		}
		if slot.CompareAndSwap(cur, &tw) {
			break
		}
	}
	return tw
}

// bluePlan is the input-independent half of an n-point Bluestein
// transform: the chirp factors and the radix-2 spectrum of the convolution
// kernel built from them.
type bluePlan struct {
	chirp  []complex128 // exp(sign·iπk²/n), k = 0..n-1
	kernel []complex128 // FFT of the length-m conj-chirp kernel
}

// maxBluePlans bounds the Bluestein plan cache. The pipeline transforms a
// handful of distinct non-power-of-two lengths (the STFT frame sizes), so
// the bound only matters to a caller sweeping many lengths: past it, an
// arbitrary plan is evicted and rebuilt if needed again.
const maxBluePlans = 32

type blueKey struct {
	n       int
	inverse bool
}

var (
	blueMu    sync.Mutex
	bluePlans = make(map[blueKey]*bluePlan)
)

// bluesteinPlan returns the cached plan for (n, inverse), building it on
// a miss. Plans are immutable once built, so callers share them freely.
func bluesteinPlan(n int, inverse bool) *bluePlan {
	key := blueKey{n, inverse}
	blueMu.Lock()
	defer blueMu.Unlock()
	if p := bluePlans[key]; p != nil {
		return p
	}
	if len(bluePlans) >= maxBluePlans {
		for k := range bluePlans {
			delete(bluePlans, k)
			break
		}
	}
	p := newBluePlan(n, inverse)
	bluePlans[key] = p
	return p
}

func newBluePlan(n int, inverse bool) *bluePlan {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp factors w[k] = exp(sign * i * pi * k^2 / n).
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k may overflow for very large n if computed in int; use
		// modular arithmetic on 2n which preserves the angle.
		kk := int64(k) * int64(k) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := make([]complex128, m)
	b[0] = cmplx.Conj(chirp[0])
	for k := 1; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
		b[m-k] = b[k]
	}
	radix2(b, false)
	return &bluePlan{chirp: chirp, kernel: b}
}

// blueBuf is the per-transform scratch of bluestein: the convolution
// operand.
type blueBuf struct {
	a []complex128
}

var bluePool = scratch.Pool[blueBuf]{
	New:    func() *blueBuf { return &blueBuf{} },
	Poison: func(bb *blueBuf) { poisonComplex(bb.a) },
}

func poisonComplex(s []complex128) {
	nan := complex(math.NaN(), math.NaN())
	for i := range s {
		s[i] = nan
	}
}

// bluestein converts an arbitrary-length DFT into a power-of-two circular
// convolution (chirp-z transform) against the plan's cached kernel.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	p := bluesteinPlan(n, inverse)
	chirp, kernel := p.chirp, p.kernel
	m := len(kernel)
	bb := bluePool.Get()
	defer bluePool.Put(bb)
	a := scratch.ResizeZero(bb.a, m)
	bb.a = a
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	radix2(a, false)
	for i := range a {
		a[i] *= kernel[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
}

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 0).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
