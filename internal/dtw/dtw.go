// Package dtw implements Dynamic Time Warping (Sakoe-Chiba 1978) and the
// FastDTW approximation (Salvador-Chan 2007), the existing point-based
// dynamic synchronizer that NSYNC's DWM replaces (Section VI-A). The package
// also extracts the horizontal displacement array h_disp (Eq. 5) and the
// vertical distance array v_dist (Eq. 15) from a warping path, which is how
// the NSYNC framework consumes DTW output.
package dtw

import (
	"errors"
	"fmt"
	"math"

	"nsync/internal/obs"
	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

// Alignment metrics (see DESIGN.md §10). Cell counts are batched per dp
// call so the DP inner loop carries no instrumentation at all.
var (
	alignCounter = obs.GetCounter("dtw.alignments")
	cellCounter  = obs.GetCounter("dtw.cells")
	fastDepth    = obs.GetHistogram("dtw.fastdtw_depth")
)

// Pair is one tuple (i, j) of a warping path: a[i] corresponds to b[j].
type Pair struct {
	I, J int
}

// Result is the output of a DTW alignment.
type Result struct {
	// Distance is the accumulated path cost.
	Distance float64
	// Path is the monotone warping path from (0,0) to (N-1,M-1).
	Path []Pair
}

// PointDist measures the distance between sample vector i of a and sample
// vector j of b (vectors taken across channels).
type PointDist func(i, j int) float64

// vecDist adapts a sigproc.DistanceFunc to a PointDist over two transposed
// signals.
func vecDist(a, b [][]float64, d sigproc.DistanceFunc) PointDist {
	return func(i, j int) float64 { return d(a[i], b[j]) }
}

// rowsBuf backs one time-major copy of a signal (a transpose or a FastDTW
// halving): the flat value backing plus the row headers carved from it.
// Alignments pool these so the per-call copies stop being garbage
// (DESIGN.md §13); the rows always stay inside the owning operation and are
// never returned to callers.
type rowsBuf struct {
	backing []float64
	rows    [][]float64
}

var rowsPool = scratch.Pool[rowsBuf]{
	New: func() *rowsBuf { return &rowsBuf{} },
	Poison: func(rb *rowsBuf) {
		for i := range rb.backing {
			rb.backing[i] = math.NaN()
		}
	},
}

// carve shapes the buffer into n rows of c values each and returns the row
// headers. Contents are unspecified; every cell must be overwritten.
func (rb *rowsBuf) carve(n, c int) [][]float64 {
	rb.backing = scratch.Resize(rb.backing, n*c)
	rb.rows = scratch.Resize(rb.rows, n)
	for i := 0; i < n; i++ {
		rb.rows[i] = rb.backing[i*c : (i+1)*c : (i+1)*c]
	}
	return rb.rows
}

// transposeInto converts a channel-major signal into time-major vectors
// backed by rb: out[n][c] = s.Data[c][n].
func transposeInto(rb *rowsBuf, s *sigproc.Signal) [][]float64 {
	n, c := s.Len(), s.Channels()
	out := rb.carve(n, c)
	for i := 0; i < n; i++ {
		row := out[i]
		for k := 0; k < c; k++ {
			row[k] = s.Data[k][i]
		}
	}
	return out
}

// Distance runs exact DTW between signals a and b with the given distance
// metric and returns the alignment. Memory and time are O(N*M); prefer Fast
// for long signals (this is exactly the cost the paper complains about).
func Distance(a, b *sigproc.Signal, d sigproc.DistanceFunc) (*Result, error) {
	if err := checkInputs(a, b); err != nil {
		return nil, err
	}
	alignCounter.Inc()
	ra, rb := rowsPool.Get(), rowsPool.Get()
	defer rowsPool.Put(ra)
	defer rowsPool.Put(rb)
	ta, tb := transposeInto(ra, a), transposeInto(rb, b)
	return dp(len(ta), len(tb), vecDist(ta, tb, d), nil)
}

// Fast runs FastDTW with the given radius. Radius 0 or 1 is the fastest,
// least accurate configuration; the paper always uses the smallest radius
// "because it takes a very long time to analyze side-channel signals".
func Fast(a, b *sigproc.Signal, d sigproc.DistanceFunc, radius int) (*Result, error) {
	if err := checkInputs(a, b); err != nil {
		return nil, err
	}
	if radius < 0 {
		return nil, fmt.Errorf("dtw: negative radius %d", radius)
	}
	alignCounter.Inc()
	if obs.Enabled() {
		// Recursion depth is determined by the input sizes alone: each level
		// halves both series until either drops to the base-case size.
		depth, n, m, minSize := 0, a.Len(), b.Len(), radius+2
		for n > minSize && m > minSize {
			n, m = (n+1)/2, (m+1)/2
			depth++
		}
		fastDepth.Observe(float64(depth))
	}
	ra, rb := rowsPool.Get(), rowsPool.Get()
	defer rowsPool.Put(ra)
	defer rowsPool.Put(rb)
	ta, tb := transposeInto(ra, a), transposeInto(rb, b)
	// One window is reused across every recursion level: each level's window
	// is dead by the time the caller level builds its own.
	wb := winPool.Get()
	defer winPool.Put(wb)
	return fastdtw(ta, tb, d, radius, wb)
}

func checkInputs(a, b *sigproc.Signal) error {
	if err := a.Validate(); err != nil {
		return fmt.Errorf("dtw: a: %w", err)
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("dtw: b: %w", err)
	}
	if a.Len() == 0 || b.Len() == 0 {
		return errors.New("dtw: empty signal")
	}
	if a.Channels() != b.Channels() {
		return fmt.Errorf("dtw: channel mismatch %d vs %d", a.Channels(), b.Channels())
	}
	return nil
}

// window lists, for every row i, the inclusive column range [lo, hi] that
// the DP may visit. A nil window means the full rectangle.
type window struct {
	lo, hi []int
}

var winPool = scratch.Pool[window]{
	New: func() *window { return &window{} },
	Poison: func(w *window) {
		for i := range w.lo {
			w.lo[i] = math.MinInt
		}
		for i := range w.hi {
			w.hi[i] = math.MinInt
		}
	},
}

// reset shapes the window to n rows spanning the full [0, m-1] rectangle.
func (w *window) reset(n, m int) {
	w.lo = scratch.ResizeZero(w.lo, n)
	w.hi = scratch.Resize(w.hi, n)
	for i := range w.hi {
		w.hi[i] = m - 1
	}
}

// dpBuf is the scratch of one dynamic-programming pass: the flat cost
// backing, the per-row window slices carved from it, and the full-rectangle
// window used when the caller passes none.
type dpBuf struct {
	backing []float64
	costs   [][]float64
	full    window
}

var dpPool = scratch.Pool[dpBuf]{
	New: func() *dpBuf { return &dpBuf{} },
	Poison: func(db *dpBuf) {
		for i := range db.backing {
			db.backing[i] = math.NaN()
		}
	},
}

// dp runs the constrained dynamic program. w may be nil (full window).
func dp(n, m int, d PointDist, w *window) (*Result, error) {
	buf := dpPool.Get()
	defer dpPool.Put(buf)
	if w == nil {
		buf.full.reset(n, m)
		w = &buf.full
	}
	const inf = math.MaxFloat64
	// cost[i] stored as per-row slices over the row's window, all carved
	// from one pooled flat backing. Every in-window cell is written by the
	// DP sweep before any read, so the backing is not cleared.
	cells := int64(0)
	for i := 0; i < n; i++ {
		lo, hi := w.lo[i], w.hi[i]
		if lo < 0 || hi >= m || lo > hi {
			return nil, fmt.Errorf("dtw: invalid window row %d: [%d,%d] of %d", i, lo, hi, m)
		}
		cells += int64(hi - lo + 1)
	}
	buf.backing = scratch.Resize(buf.backing, int(cells))
	costs := scratch.Resize(buf.costs, n)
	buf.costs = costs
	off := 0
	for i := 0; i < n; i++ {
		width := w.hi[i] - w.lo[i] + 1
		costs[i] = buf.backing[off : off+width : off+width]
		off += width
	}
	cellCounter.Add(cells)
	at := func(i, j int) float64 {
		if i < 0 || j < 0 {
			if i == -1 && j == -1 {
				return 0
			}
			return inf
		}
		if j < w.lo[i] || j > w.hi[i] {
			return inf
		}
		return costs[i][j-w.lo[i]]
	}
	for i := 0; i < n; i++ {
		for j := w.lo[i]; j <= w.hi[i]; j++ {
			best := math.Min(at(i-1, j-1), math.Min(at(i-1, j), at(i, j-1)))
			if best == inf {
				costs[i][j-w.lo[i]] = inf
				continue
			}
			costs[i][j-w.lo[i]] = d(i, j) + best
		}
	}
	if at(n-1, m-1) == inf {
		return nil, errors.New("dtw: window disconnects the path")
	}
	// Backtrack.
	path := make([]Pair, 0, n+m)
	i, j := n-1, m-1
	for i > 0 || j > 0 {
		path = append(path, Pair{i, j})
		diag, up, left := at(i-1, j-1), at(i-1, j), at(i, j-1)
		switch {
		case diag <= up && diag <= left:
			i, j = i-1, j-1
		case up <= left:
			i--
		default:
			j--
		}
	}
	path = append(path, Pair{0, 0})
	reverse(path)
	return &Result{Distance: at(n-1, m-1), Path: path}, nil
}

func reverse(p []Pair) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}

// halveInto shrinks a time-major series by averaging adjacent pairs, backed
// by rb.
func halveInto(rb *rowsBuf, x [][]float64) [][]float64 {
	if len(x) == 0 {
		return nil
	}
	n := (len(x) + 1) / 2
	c := len(x[0])
	out := rb.carve(n, c)
	for i := 0; i < n; i++ {
		row := out[i]
		a := x[2*i]
		if 2*i+1 < len(x) {
			b := x[2*i+1]
			for k := 0; k < c; k++ {
				row[k] = (a[k] + b[k]) / 2
			}
		} else {
			copy(row, a)
		}
	}
	return out
}

// expandWindowInto projects a coarse path to the fine resolution and widens
// it by radius cells in every direction (Salvador-Chan), writing into w.
func expandWindowInto(w *window, path []Pair, n, m, radius int) *window {
	w.lo = scratch.Resize(w.lo, n)
	w.hi = scratch.Resize(w.hi, n)
	for i := range w.lo {
		w.lo[i] = m // sentinel: empty
		w.hi[i] = -1
	}
	mark := func(i, jlo, jhi int) {
		if i < 0 || i >= n {
			return
		}
		if jlo < 0 {
			jlo = 0
		}
		if jhi > m-1 {
			jhi = m - 1
		}
		if jlo < w.lo[i] {
			w.lo[i] = jlo
		}
		if jhi > w.hi[i] {
			w.hi[i] = jhi
		}
	}
	for _, p := range path {
		// Each coarse cell (p.I, p.J) covers fine cells 2I..2I+1 × 2J..2J+1,
		// expanded by radius.
		for di := -radius; di <= 1+radius; di++ {
			mark(2*p.I+di, 2*p.J-radius, 2*p.J+1+radius)
		}
	}
	// Fill any empty rows (possible at the tail when n is odd) and make the
	// windows monotone so the path remains connected.
	prevLo, prevHi := 0, 0
	for i := 0; i < n; i++ {
		if w.hi[i] < w.lo[i] {
			w.lo[i], w.hi[i] = prevLo, prevHi
		}
		if w.lo[i] > prevHi {
			w.lo[i] = prevHi // keep rows overlapping
		}
		if w.hi[i] < prevHi {
			w.hi[i] = prevHi
		}
		prevLo, prevHi = w.lo[i], w.hi[i]
	}
	w.hi[n-1] = m - 1
	if w.lo[n-1] > m-1 {
		w.lo[n-1] = m - 1
	}
	w.lo[0] = 0
	return w
}

// fastdtw is the recursive FastDTW core over time-major vectors. wb is the
// shared scratch window: by the time any level fills it (after its own
// recursive call has returned), no deeper level holds a window anymore.
func fastdtw(x, y [][]float64, d sigproc.DistanceFunc, radius int, wb *window) (*Result, error) {
	minSize := radius + 2
	if len(x) <= minSize || len(y) <= minSize {
		return dp(len(x), len(y), vecDist(x, y, d), nil)
	}
	hx, hy := rowsPool.Get(), rowsPool.Get()
	cx, cy := halveInto(hx, x), halveInto(hy, y)
	coarse, err := fastdtw(cx, cy, d, radius, wb)
	// The coarse path is heap-allocated; the halved copies can be recycled
	// before the fine pass.
	rowsPool.Put(hx)
	rowsPool.Put(hy)
	if err != nil {
		return nil, err
	}
	w := expandWindowInto(wb, coarse.Path, len(x), len(y), radius)
	return dp(len(x), len(y), vecDist(x, y, d), w)
}

// HDisp extracts the horizontal displacement array of Eq. (5) from a path:
// h_disp[i] is the mean of j-i over all tuples (i, j). n is the length of
// signal a. Every i in [0, n) appears in a valid full-resolution DTW path,
// but callers also pass coarse or truncated paths that skip rows; an
// uncovered row takes the nearest covered row's value — a 0 would read as
// "perfectly aligned" downstream, masking exactly the misalignment the
// discriminator looks for.
func HDisp(path []Pair, n int) []float64 {
	sb := statsPool.Get()
	defer statsPool.Put(sb)
	sum := scratch.ResizeZero(sb.sum, n)
	cnt := scratch.ResizeZero(sb.cnt, n)
	sb.sum, sb.cnt = sum, cnt
	for _, p := range path {
		if p.I >= 0 && p.I < n {
			sum[p.I] += float64(p.J - p.I)
			cnt[p.I]++
		}
	}
	out := make([]float64, n)
	for i := range out {
		if cnt[i] > 0 {
			out[i] = sum[i] / float64(cnt[i])
		}
	}
	fillUncovered(sb, out, cnt)
	return out
}

// VDist extracts the vertical distance array of Eq. (15): v_dist[i] is the
// mean of d(a[i], b[j]) over all tuples (i, j) in the path. Rows the path
// never covers take the nearest covered row's value (see HDisp) — a 0
// would read as "zero distance", the strongest possible benign vote.
func VDist(path []Pair, a, b *sigproc.Signal, d sigproc.DistanceFunc) []float64 {
	n := a.Len()
	ra, rb := rowsPool.Get(), rowsPool.Get()
	defer rowsPool.Put(ra)
	defer rowsPool.Put(rb)
	ta, tb := transposeInto(ra, a), transposeInto(rb, b)
	sb := statsPool.Get()
	defer statsPool.Put(sb)
	sum := scratch.ResizeZero(sb.sum, n)
	cnt := scratch.ResizeZero(sb.cnt, n)
	sb.sum, sb.cnt = sum, cnt
	for _, p := range path {
		if p.I >= 0 && p.I < n && p.J >= 0 && p.J < len(tb) {
			sum[p.I] += d(ta[p.I], tb[p.J])
			cnt[p.I]++
		}
	}
	out := make([]float64, n)
	for i := range out {
		if cnt[i] > 0 {
			out[i] = sum[i] / float64(cnt[i])
		}
	}
	fillUncovered(sb, out, cnt)
	return out
}

// statsBuf is the scratch of one path-statistics extraction (HDisp/VDist):
// per-row accumulators and the nearest-covered-row index of fillUncovered.
// The returned arrays themselves are heap-allocated — they go to callers.
type statsBuf struct {
	sum  []float64
	cnt  []int
	prev []int
}

var statsPool = scratch.Pool[statsBuf]{
	New: func() *statsBuf { return &statsBuf{} },
	Poison: func(sb *statsBuf) {
		for i := range sb.sum {
			sb.sum[i] = math.NaN()
		}
		for i := range sb.cnt {
			sb.cnt[i] = math.MinInt
		}
		for i := range sb.prev {
			sb.prev[i] = math.MinInt
		}
	},
}

// fillUncovered replaces out[i] for rows with cnt[i] == 0 by the value of
// the nearest covered row (the earlier one on ties). A path covering no
// rows at all leaves out as zeros.
func fillUncovered(sb *statsBuf, out []float64, cnt []int) {
	n := len(out)
	// prev[i] is the nearest covered row at or before i (-1: none).
	prev := scratch.Resize(sb.prev, n)
	sb.prev = prev
	last := -1
	for i := 0; i < n; i++ {
		if cnt[i] > 0 {
			last = i
		}
		prev[i] = last
	}
	// Walk backwards tracking the nearest covered row at or after i; since
	// only uncovered rows are written and only covered rows are read, the
	// fill order cannot chain stale values.
	next := -1
	for i := n - 1; i >= 0; i-- {
		if cnt[i] > 0 {
			next = i
			continue
		}
		p := prev[i]
		switch {
		case p < 0 && next < 0: // no covered rows at all: leave zeros
		case p < 0:
			out[i] = out[next]
		case next < 0:
			out[i] = out[p]
		case i-p <= next-i:
			out[i] = out[p]
		default:
			out[i] = out[next]
		}
	}
}
