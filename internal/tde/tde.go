// Package tde implements Time Delay Estimation: finding the best location of
// a short signal y inside a longer signal x (Section V-B of the paper), via
// the sliding method of Eqs. (1)-(2), plus the biased variant TDEB used by
// Dynamic Window Matching (Section VI-B, Fig. 5).
package tde

import (
	"errors"
	"fmt"
	"math"

	"nsync/internal/obs"
	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

// ErrTooShort is returned when x is shorter than y, so y cannot appear in x.
var ErrTooShort = errors.New("tde: x is shorter than y")

// estimates counts similarity-array evaluations, the TDE work unit shared by
// Delay and DelayBiasedAt (see DESIGN.md §10).
var estimates = obs.GetCounter("tde.estimates")

// corrBuf is the scratch of one delay estimation: the similarity and biased
// arrays plus everything the fast correlation path needs. Delay and the
// DelayBiased variants pool whole corrBufs, so one DWM step costs one pool
// round-trip instead of half a dozen slice allocations per window
// (DESIGN.md §13). Estimators stay stateless — scratch never lives on the
// Estimator, which is documented as safe to share across goroutines.
type corrBuf struct {
	scores  []float64 // similarity array s[n]
	biased  []float64 // TDEB-weighted copy of scores
	prefix  []float64 // prefix sums of x
	prefix2 []float64 // prefix sums of x^2
	dots    []float64 // sliding cross-terms of a lane pair
	live    []int     // lanes whose template is not constant
	// fx/fy are FFT operands; fz is the whitened cross-spectrum of the
	// GCC-PHAT path.
	fx, fy, fz []complex128

	// winData backs the sliding window view of the naive (non-fast) path.
	winData [][]float64

	// weights caches the TDEB Gaussian by distance from the bias center for
	// weightSigma (see gaussianWeights). Unlike the buffers above it is a
	// cache, not scratch: it survives Put and is not poisoned.
	weights     []float64
	weightSigma float64
}

var corrPool = scratch.Pool[corrBuf]{
	New: func() *corrBuf { return &corrBuf{} },
	Poison: func(cb *corrBuf) {
		poisonFloats(cb.scores)
		poisonFloats(cb.biased)
		poisonFloats(cb.prefix)
		poisonFloats(cb.prefix2)
		poisonFloats(cb.dots)
		for i := range cb.live {
			cb.live[i] = math.MinInt
		}
		nan := complex(math.NaN(), math.NaN())
		for _, s := range [][]complex128{cb.fx, cb.fy, cb.fz} {
			for i := range s {
				s[i] = nan
			}
		}
	},
}

func poisonFloats(s []float64) {
	for i := range s {
		s[i] = math.NaN()
	}
}

// Estimator performs time delay estimation with a configurable similarity
// function. The zero value is not usable; construct with New.
type Estimator struct {
	sim     sigproc.SimilarityFunc
	stacked bool
	// fastCorr enables the FFT/prefix-sum fast path, valid only for the
	// default Pearson-correlation similarity with channel averaging.
	fastCorr bool
}

// Option configures an Estimator.
type Option func(*Estimator)

// WithSimilarity replaces the default Pearson-correlation similarity.
// Custom similarities use the naive sliding method rather than the FFT fast
// path.
func WithSimilarity(f sigproc.SimilarityFunc) Option {
	return func(e *Estimator) {
		e.sim = f
		e.fastCorr = false
	}
}

// WithoutFastPath forces the naive O(Nx*Ny) sliding method even for the
// default correlation similarity. Exists for equivalence tests and
// benchmarks.
func WithoutFastPath() Option {
	return func(e *Estimator) { e.fastCorr = false }
}

// WithStackedChannels makes the estimator flatten channels into one long
// vector instead of averaging per-channel scores. The paper found averaging
// (the default) reaches a higher SNR; stacking exists for the ablation.
func WithStackedChannels() Option {
	return func(e *Estimator) {
		e.stacked = true
		e.fastCorr = false
	}
}

// New returns an Estimator using the correlation coefficient, the NSYNC
// default similarity function.
func New(opts ...Option) *Estimator {
	e := &Estimator{sim: sigproc.Correlation, fastCorr: true}
	for _, o := range opts {
		o(e)
	}
	return e
}

// SimilarityArray computes s[n] = f(x[n:n+Ny], y) for n = 0..Nx-Ny
// (Eq. (1)). The returned slice has length Nx-Ny+1 and is owned by the
// caller (it never aliases pooled scratch).
func (e *Estimator) SimilarityArray(x, y *sigproc.Signal) ([]float64, error) {
	buf := corrPool.Get()
	defer corrPool.Put(buf)
	s, err := e.similarityInto(buf, x, y)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), s...), nil
}

// similarityInto computes the similarity array into buf.scores and returns
// it. The result aliases buf and is valid only until buf is pooled again.
func (e *Estimator) similarityInto(buf *corrBuf, x, y *sigproc.Signal) ([]float64, error) {
	nx, ny := x.Len(), y.Len()
	if nx < ny {
		return nil, fmt.Errorf("%w: len(x)=%d len(y)=%d", ErrTooShort, nx, ny)
	}
	if x.Channels() != y.Channels() {
		return nil, fmt.Errorf("tde: channel mismatch %d vs %d", x.Channels(), y.Channels())
	}
	estimates.Inc()
	if e.fastCorr {
		return fastCorrelationInto(buf, x, y), nil
	}
	scores := scratch.Resize(buf.scores, nx-ny+1)
	buf.scores = scores
	// Reusable sliding-window view of x; the similarity functions only read
	// their arguments, so one set of channel headers is resliced per
	// position instead of allocating a Signal per candidate delay.
	buf.winData = scratch.Resize(buf.winData, x.Channels())
	win := &sigproc.Signal{Rate: x.Rate, Data: buf.winData}
	for n := range scores {
		for c := range x.Data {
			buf.winData[c] = x.Data[c][n : n+ny]
		}
		var (
			s   float64
			err error
		)
		if e.stacked {
			s, err = sigproc.StackedSimilarity(e.sim, win, y)
		} else {
			s, err = sigproc.MultiChannelSimilarity(e.sim, win, y)
		}
		if err != nil {
			return nil, err
		}
		scores[n] = s
	}
	return scores, nil
}

// Delay returns n_delay = argmax_n s[n] (Eq. (2)): the sample offset in x at
// which y best matches, along with the winning similarity score.
func (e *Estimator) Delay(x, y *sigproc.Signal) (delay int, score float64, err error) {
	buf := corrPool.Get()
	defer corrPool.Put(buf)
	s, err := e.similarityInto(buf, x, y)
	if err != nil {
		return 0, 0, err
	}
	d := argmax(s)
	return d, s[d], nil
}

// DelayBiased implements TDEB: the similarity array is multiplied by a
// Gaussian window with standard deviation sigma (in samples) centered on the
// middle of the array before taking the argmax. Because raw correlation
// scores may be negative and the bias is a multiplicative positive weight,
// scores are first shifted to be non-negative; this keeps the bias monotone
// (a bigger window weight can only help, never flip the sign of the
// preference).
func (e *Estimator) DelayBiased(x, y *sigproc.Signal, sigma float64) (delay int, score float64, err error) {
	return e.DelayBiasedAt(x, y, (x.Len()-y.Len())/2, sigma)
}

// DelayBiasedAt is DelayBiased with the Gaussian bias centered on an
// arbitrary index of the similarity array instead of its middle. DWM needs
// this near the edges of the reference signal, where the extended search
// window is clipped and the predicted delay is no longer centered.
func (e *Estimator) DelayBiasedAt(x, y *sigproc.Signal, center int, sigma float64) (delay int, score float64, err error) {
	buf := corrPool.Get()
	defer corrPool.Put(buf)
	s, err := e.similarityInto(buf, x, y)
	if err != nil {
		return 0, 0, err
	}
	w := buf.gaussianWeights(sigma, biasReach(len(s), center))
	buf.biased = biasedScoresInto(scratch.Resize(buf.biased, len(s)), s, center, w)
	d := argmax(buf.biased)
	return d, s[d], nil
}

// BiasedScores applies the TDEB Gaussian bias, centered on the middle of the
// array, to a similarity array and returns the biased scores. The input is
// not modified.
func BiasedScores(s []float64, sigma float64) []float64 {
	return BiasedScoresAt(s, (len(s)-1)/2, sigma)
}

// BiasedScoresAt applies the TDEB Gaussian bias centered at the given index.
// Scores are first shifted to be non-negative so the multiplicative weight
// acts as a monotone bias.
func BiasedScoresAt(s []float64, center int, sigma float64) []float64 {
	w := gaussianTable(nil, sigma, biasReach(len(s), center))
	return biasedScoresInto(make([]float64, len(s)), s, center, w)
}

// biasedScoresInto writes the biased scores into out (len(out) must equal
// len(s)) and returns out. w is a gaussianTable covering s's reach around
// center.
func biasedScoresInto(out, s []float64, center int, w []float64) []float64 {
	if len(s) == 0 {
		return out
	}
	lo := s[0]
	for _, v := range s {
		if v < lo {
			lo = v
		}
	}
	for i, v := range s {
		d := i - center
		if d < 0 {
			d = -d
		}
		var wd float64 // past the table's end the weight has underflowed to 0
		if d < len(w) {
			wd = w[d]
		}
		out[i] = (v - lo) * wd
	}
	return out
}

// biasReach is the number of weights a length-n array biased at center
// reads: one past the largest |i-center|.
func biasReach(n, center int) int {
	return max(center, -center, n-1-center, center-(n-1)) + 1
}

// gaussianWeights returns the TDEB weight table for sigma covering at least
// n distances, rebuilding buf's cached table only when sigma changes or a
// longer reach is needed. A DWM synchronizer's sigma is fixed, so in steady
// state every window reuses one table instead of calling math.Exp per score.
func (buf *corrBuf) gaussianWeights(sigma float64, n int) []float64 {
	w := buf.weights
	if sigma == buf.weightSigma && (len(w) >= n || complete(w)) {
		return w
	}
	buf.weights, buf.weightSigma = gaussianTable(buf.weights, sigma, n), sigma
	return buf.weights
}

// gaussianTable fills w[d] = exp(-0.5·(d/sigma)²) for d = 0..n-1 (for
// sigma <= 0: 1 at d = 0, else 0), using dst's backing array when it fits.
// Each weight is computed exactly as a per-score evaluation at i-center = ±d
// would be — negation is exact — so lookups are bit-identical to it. The
// table stops at the first weight that is exactly 0: the Gaussian only
// decreases, so every later weight underflows to 0 as well, and readers
// treat distances past the end as weight 0.
func gaussianTable(dst []float64, sigma float64, n int) []float64 {
	w := dst[:0]
	for d := 0; d < n; d++ {
		var wd float64
		if sigma <= 0 {
			if d == 0 {
				wd = 1
			}
		} else {
			z := float64(d) / sigma
			wd = math.Exp(-0.5 * z * z)
		}
		w = append(w, wd)
		if wd == 0 {
			break
		}
	}
	return w
}

// complete reports whether a weight table already runs to its underflow
// point, so it serves any reach.
func complete(w []float64) bool { return len(w) > 0 && w[len(w)-1] == 0 }

func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
