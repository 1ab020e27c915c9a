package tde

import (
	"math"
	"math/cmplx"

	"nsync/internal/fft"
	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

// fastCorrelationInto computes the same values as the naive sliding method
// with the Pearson correlation similarity, in O(Nx log Nx) instead of
// O(Nx*Ny) per channel: the cross-terms come from FFT cross-correlations,
// two channels per transform, and the window statistics from prefix sums.
// This is what makes DWM cheap enough to run on raw 48 kHz-class signals in
// real time. All working memory — the output, prefix sums, cross-terms, and
// FFT operands — comes from buf, so the steady-state cost is zero
// allocations; the returned slice aliases buf.scores.
func fastCorrelationInto(buf *corrBuf, x, y *sigproc.Signal) []float64 {
	nx, ny := x.Len(), y.Len()
	positions := nx - ny + 1
	out := scratch.ResizeZero(buf.scores, positions)
	buf.scores = out
	channels := x.Channels()
	if channels == 0 || positions <= 0 {
		return out
	}
	// A constant template correlates to 0 at every position, so only the
	// other lanes need cross-terms. A NaN variance is not skipped:
	// non-finite input must poison the scores, not vanish from them.
	live := buf.live[:0]
	for c := 0; c < channels; c++ {
		if _, varY := templateStats(y.Data[c]); varY <= 0 {
			continue
		}
		live = append(live, c)
	}
	buf.live = live
	dots := scratch.Resize(buf.dots, 2*positions)
	buf.dots = dots
	dotsA, dotsB := dots[:positions], dots[positions:]
	for k := 0; k < len(live); k += 2 {
		a := live[k]
		if k+1 == len(live) {
			crossDotsInto(buf, x.Data[a], y.Data[a], nil, nil, dotsA, nil)
			pearsonInto(out, buf, x.Data[a], y.Data[a], dotsA)
			break
		}
		b := live[k+1]
		crossDotsInto(buf, x.Data[a], y.Data[a], x.Data[b], y.Data[b], dotsA, dotsB)
		pearsonInto(out, buf, x.Data[a], y.Data[a], dotsA)
		pearsonInto(out, buf, x.Data[b], y.Data[b], dotsB)
	}
	inv := 1 / float64(channels)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// templateStats returns the sum and the unnormalized variance
// (Σy² − (Σy)²/n) of a template lane; both are position-independent.
func templateStats(yc []float64) (sy, varY float64) {
	var syy float64
	for _, v := range yc {
		sy += v
		syy += v * v
	}
	return sy, syy - sy*sy/float64(len(yc))
}

// pearsonInto adds one lane's Pearson correlation at every position to out,
// given the lane's sliding cross-terms dots[p] = Σ_i x[p+i]·y[i].
func pearsonInto(out []float64, buf *corrBuf, xc, yc, dots []float64) {
	nx, ny := len(xc), len(yc)
	sy, varY := templateStats(yc)
	n := float64(ny)
	// Prefix sums of x and x^2.
	prefix := scratch.Resize(buf.prefix, nx+1)
	prefix2 := scratch.Resize(buf.prefix2, nx+1)
	buf.prefix, buf.prefix2 = prefix, prefix2
	prefix[0], prefix2[0] = 0, 0
	for i, v := range xc {
		prefix[i+1] = prefix[i] + v
		prefix2[i+1] = prefix2[i] + v*v
	}
	for p := range out {
		sx := prefix[p+ny] - prefix[p]
		sxx := prefix2[p+ny] - prefix2[p]
		varX := sxx - sx*sx/n
		if varX <= 0 {
			continue // contributes 0 to the channel average
		}
		cov := dots[p] - sx*sy/n
		corr := cov / math.Sqrt(varX*varY)
		// FFT round-off can push the value epsilon outside [-1, 1].
		if corr > 1 {
			corr = 1
		} else if corr < -1 {
			corr = -1
		}
		out[p] += corr
	}
}

// crossDotsInto writes da[p] = Σ_i xa[p+i]·ya[i] for p = 0..len(xa)-len(ya),
// and the same for lane b into db unless xb is nil. Small problems are
// evaluated directly. Larger ones take one packed FFT correlation for both
// lanes: lane a rides in the real part and lane b in the imaginary part of
// each operand, the two spectra are separated by conjugate symmetry, and a
// single inverse transform of Xa·conj(Ya) + i·Xb·conj(Yb) returns lane a's
// cross-terms as its real part and lane b's as its imaginary part.
//
// Correlating against conj(Y), with y zero-padded but not reversed, gives
// the circular correlation r[p] = Σ_i x[(p+i) mod m]·y[i]. For every valid
// position p+i <= nx-1 < m, so no term wraps and the FFT length only needs
// to cover x: m = NextPow2(nx), about half what a linear convolution with
// y reversed would need.
func crossDotsInto(buf *corrBuf, xa, ya, xb, yb, da, db []float64) {
	nx, ny := len(xa), len(ya)
	if nx*ny <= 64*1024 {
		directDotsInto(da, xa, ya)
		if xb != nil {
			directDotsInto(db, xb, yb)
		}
		return
	}
	m := fft.NextPow2(nx)
	fx := packInto(scratch.Resize(buf.fx, m), xa, xb)
	fy := packInto(scratch.Resize(buf.fy, m), ya, yb)
	buf.fx, buf.fy = fx, fy
	fft.InPlace(fx)
	fft.InPlace(fy)
	// For a packed real pair z = u + i·v, U[k] = (Z[k] + conj Z[m-k])/2 and
	// V[k] = (Z[k] - conj Z[m-k])/2i. With s = Z[k] + conj Z[m-k] and
	// d = Z[k] - conj Z[m-k] for each operand, Xa·conj(Ya) = sx·conj(sy)/4
	// and Xb·conj(Yb) = dx·conj(dy)/4. Bins k and m-k read each other, so
	// they are written together; both hold the conjugate of the packed
	// cross-spectrum C, whose inverse transform is then conj(FFT(conj C))/m
	// — a forward transform, with the conjugation and the 1/(4m) scale
	// folded into the read-out below.
	for k := 0; k <= m/2; k++ {
		j := (m - k) & (m - 1)
		xk, xj := fx[k], cmplx.Conj(fx[j])
		yk, yj := fy[k], cmplx.Conj(fy[j])
		pa := (xk + xj) * cmplx.Conj(yk+yj)
		pb := (xk - xj) * cmplx.Conj(yk-yj)
		ra, ia, rb, ib := real(pa), imag(pa), real(pb), imag(pb)
		fx[k] = complex(ra-ib, -ia-rb) // conj(pa + i·pb)
		fx[j] = complex(ra+ib, ia-rb)  // conj(conj(pa) + i·conj(pb))
	}
	fft.InPlace(fx)
	scale := 0.25 / float64(m)
	for p := range da {
		da[p] = scale * real(fx[p])
	}
	if xb != nil {
		for p := range db {
			db[p] = -scale * imag(fx[p])
		}
	}
}

// directDotsInto evaluates the sliding cross-terms directly.
func directDotsInto(out, x, y []float64) {
	ny := len(y)
	for p := range out {
		var s float64
		xp := x[p : p+ny]
		for i, v := range y {
			s += xp[i] * v
		}
		out[p] = s
	}
}

// packInto writes re + i·im into dst, zero-padding past len(re); a nil im
// packs zeros.
func packInto(dst []complex128, re, im []float64) []complex128 {
	if im == nil {
		for i, v := range re {
			dst[i] = complex(v, 0)
		}
	} else {
		im = im[:len(re)]
		for i, v := range re {
			dst[i] = complex(v, im[i])
		}
	}
	clear(dst[len(re):])
	return dst
}
