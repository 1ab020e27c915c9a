package tde

import (
	"math"
	"math/cmplx"

	"nsync/internal/fft"
	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

// directMax is the largest nx·ny whose sliding cross-terms are evaluated
// directly; larger problems take the FFT branch.
const directMax = 64 * 1024

// fastCorrelationInto computes the same values as the naive sliding method
// with the Pearson correlation similarity, in O(Nx log Nx) instead of
// O(Nx*Ny) per channel: the cross-terms come from FFT cross-correlations
// against x's lane spectra, and the window statistics from prefix sums.
// This is what makes DWM cheap enough to run on raw 48 kHz-class signals in
// real time. x's spectra come from cached, when it holds any (the block of
// a prepared Reference that x is a slice of), and are computed into buf
// otherwise. All working memory — the output, prefix sums, cross-terms,
// and FFT operands — comes from buf, so the steady-state cost is zero
// allocations; the returned slice aliases buf.scores.
func fastCorrelationInto(buf *corrBuf, x, y *sigproc.Signal, cached laneSpectra) []float64 {
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
	live, stats := buf.live[:0], buf.stats[:0]
	for c := 0; c < channels; c++ {
		st := templateStatsOf(y.Data[c])
		if st.varY <= 0 {
			continue
		}
		live, stats = append(live, c), append(stats, st)
	}
	buf.live, buf.stats = live, stats
	dots := scratch.Resize(buf.dots, 2*positions)
	buf.dots = dots
	dotsA, dotsB := dots[:positions], dots[positions:]
	direct := nx*ny <= directMax
	spec := cached
	if !direct && spec.bins == nil {
		spec = buf.spectraOf(x, live)
	}
	for k := 0; k < len(live); k += 2 {
		a := live[k]
		if k+1 == len(live) {
			if direct {
				directDotsInto(dotsA, x.Data[a], y.Data[a])
			} else {
				crossDotsInto(buf, spec, a, -1, y.Data[a], nil, dotsA, nil)
			}
			pearsonInto(out, buf, x.Data[a], stats[k], dotsA)
			break
		}
		b := live[k+1]
		if direct {
			directDotsInto(dotsA, x.Data[a], y.Data[a])
			directDotsInto(dotsB, x.Data[b], y.Data[b])
		} else {
			crossDotsInto(buf, spec, a, b, y.Data[a], y.Data[b], dotsA, dotsB)
		}
		pearsonInto(out, buf, x.Data[a], stats[k], dotsA)
		pearsonInto(out, buf, x.Data[b], stats[k+1], dotsB)
	}
	inv := 1 / float64(channels)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// templateStats are the position-independent statistics of one template
// lane: its length, sum, and unnormalized variance Σy² − (Σy)²/n.
type templateStats struct {
	n        int
	sy, varY float64
}

func templateStatsOf(yc []float64) templateStats {
	var sy, syy float64
	for _, v := range yc {
		sy += v
		syy += v * v
	}
	return templateStats{n: len(yc), sy: sy, varY: syy - sy*sy/float64(len(yc))}
}

// pearsonInto adds one lane's Pearson correlation at every position to out,
// given the lane's template statistics and its sliding cross-terms
// dots[p] = Σ_i x[p+i]·y[i].
func pearsonInto(out []float64, buf *corrBuf, xc []float64, st templateStats, dots []float64) {
	nx, ny := len(xc), st.n
	n, sy, varY := float64(ny), st.sy, st.varY
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

// laneSpectra holds, per lane c, the doubled half-spectrum 2·X_c[k],
// k = 0..m/2, of a block of x zero-padded to m points; the search region
// starts off samples into the block. The other half of each spectrum
// follows from conjugate symmetry (x is real). A nil bins means no
// spectra are at hand.
type laneSpectra struct {
	bins []complex128 // lane c at [c·(m/2+1), (c+1)·(m/2+1))
	m    int
	off  int
}

func (s laneSpectra) lane(c int) []complex128 {
	h := s.m/2 + 1
	return s.bins[c*h : (c+1)*h]
}

// spectraOf computes the spectra of x's listed lanes into buf, with the
// transform just long enough for x: m = NextPow2(nx).
func (buf *corrBuf) spectraOf(x *sigproc.Signal, lanes []int) laneSpectra {
	m := fft.NextPow2(x.Len())
	bins := scratch.Resize(buf.fx, x.Channels()*(m/2+1))
	z := scratch.Resize(buf.fy, m)
	buf.fx, buf.fy = bins, z
	s := laneSpectra{bins: bins, m: m}
	halfSpectraInto(s, z, x.Data, lanes)
	return s
}

// halfSpectraInto fills dst's slot for each listed lane of data (every
// lane at most dst.m samples, zero-padded to dst.m) using z, of length
// dst.m, as the transform buffer. Lanes go two per transform: lane a rides
// in the real part and lane b in the imaginary part, and the spectra are
// separated by conjugate symmetry, 2·A[k] = Z[k] + conj Z[m−k] and
// 2·B[k] = −i·(Z[k] − conj Z[m−k]). An odd lane out rides alone.
func halfSpectraInto(dst laneSpectra, z []complex128, data [][]float64, lanes []int) {
	m := dst.m
	for k := 0; k < len(lanes); k += 2 {
		a := lanes[k]
		var xb []float64
		var sb []complex128
		if k+1 < len(lanes) {
			xb, sb = data[lanes[k+1]], dst.lane(lanes[k+1])
		}
		packInto(z, data[a], xb)
		fft.InPlace(z)
		sa := dst.lane(a)
		for i := range sa {
			zk, zj := z[i], cmplx.Conj(z[(m-i)&(m-1)])
			sa[i] = zk + zj
			if sb != nil {
				d := zk - zj
				sb[i] = complex(imag(d), -real(d)) // −i·d, exact
			}
		}
	}
}

// crossDotsInto writes da[p] = Σ_i xa[p+i]·ya[i] for every position of da,
// and the same for lane b into db unless b < 0, from x's lane spectra: one
// forward transform of the packed template pair ya + i·yb and one inverse
// transform per lane pair.
//
// For the packed template, 2·Ya[k] = Z[k] + conj Z[m−k] = sy and
// 2i·Yb[k] = Z[k] − conj Z[m−k] = dy. With A = 2·Xa and B = 2·Xb from the
// spectra, pa = A·conj(sy) = 4·Xa·conj(Ya) and q = B·conj(dy) =
// −4i·Xb·conj(Yb), so the packed cross-spectrum C = Xa·conj(Ya) +
// i·Xb·conj(Yb) has 4·C[k] = pa − q and 4·C[m−k] = conj(pa + q). Its
// inverse transform holds lane a's correlation in the real part and lane
// b's in the imaginary part; it runs as a forward transform of conj(4·C),
// with the conjugation and the 1/(4m) scale folded into the read-out.
//
// Correlating against conj(Y), with y zero-padded but not reversed, gives
// the circular correlation r[j] = Σ_i blk[(j+i) mod m]·y[i]. The search
// region starts off samples into the block, so position p reads
// r[off+p], and off+p+i <= off+nx−1 < m for every valid term: nothing
// wraps.
func crossDotsInto(buf *corrBuf, spec laneSpectra, a, b int, ya, yb, da, db []float64) {
	m := spec.m
	z := packInto(scratch.Resize(buf.fz, m), ya, yb)
	buf.fz = z
	fft.InPlace(z)
	sa := spec.lane(a)
	var sb []complex128
	if b >= 0 {
		sb = spec.lane(b)
	}
	for k, ak := range sa {
		j := (m - k) & (m - 1)
		yk, yj := z[k], cmplx.Conj(z[j])
		pa := ak * cmplx.Conj(yk+yj)
		var q complex128
		if sb != nil {
			q = sb[k] * cmplx.Conj(yk-yj)
		}
		z[k] = cmplx.Conj(pa - q)
		z[j] = pa + q
	}
	fft.InPlace(z)
	scale := 0.25 / float64(m)
	r := z[spec.off : spec.off+len(da)]
	for p := range da {
		da[p] = scale * real(r[p])
	}
	if sb != nil {
		for p := range db {
			db[p] = -scale * imag(r[p])
		}
	}
}

// directDotsInto evaluates the sliding cross-terms directly, four
// positions per sweep of y. Each position keeps its own accumulator and
// adds its products in the same i order as a one-position loop, so every
// output is bit-identical to it; the four add chains are independent, so
// they overlap instead of each waiting on its own latency. The one to
// three positions left over run one at a time.
func directDotsInto(out, x, y []float64) {
	ny := len(y)
	p := 0
	for ; p+4 <= len(out); p += 4 {
		var s0, s1, s2, s3 float64
		x0, x1, x2, x3 := x[p:p+ny], x[p+1:p+1+ny], x[p+2:p+2+ny], x[p+3:p+3+ny]
		for i, v := range y {
			s0 += x0[i] * v
			s1 += x1[i] * v
			s2 += x2[i] * v
			s3 += x3[i] * v
		}
		out[p], out[p+1], out[p+2], out[p+3] = s0, s1, s2, s3
	}
	for ; p < len(out); p++ {
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
