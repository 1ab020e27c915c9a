package sigproc

import (
	"fmt"
	"math"
)

// SimilarityFunc scores how alike two equal-length single-channel sample
// slices are. Higher is more similar. It is the f of Eq. (1).
type SimilarityFunc func(u, v []float64) float64

// Correlation is the Pearson correlation coefficient of Eq. (3). It returns
// a value in [-1, 1]. If either input is constant (zero variance) the
// coefficient is undefined; Correlation returns 0 in that case, which treats
// flat windows as uninformative rather than as perfect matches.
func Correlation(u, v []float64) float64 {
	n := len(u)
	if n == 0 || n != len(v) {
		return 0
	}
	mu, mv := mean(u), mean(v)
	var dot, uu, vv float64
	for i := 0; i < n; i++ {
		du, dv := u[i]-mu, v[i]-mv
		dot += du * dv
		uu += du * du
		vv += dv * dv
	}
	if uu == 0 || vv == 0 {
		return 0
	}
	return dot / math.Sqrt(uu*vv)
}

// CosineSimilarity is the normalized inner product. Returns 0 when either
// vector is all-zero.
func CosineSimilarity(u, v []float64) float64 {
	var dot, uu, vv float64
	for i := range u {
		dot += u[i] * v[i]
		uu += u[i] * u[i]
		vv += v[i] * v[i]
	}
	if uu == 0 || vv == 0 {
		return 0
	}
	return dot / math.Sqrt(uu*vv)
}

// MultiChannelSimilarity applies f per channel along the time axis and
// averages the scores across channels, the strategy of Section V-B: it
// discards channel-wise information and focuses on time-wise information,
// which the paper found to raise the SNR of time-delay estimation.
//
// Both signals must have the same length and channel count.
func MultiChannelSimilarity(f SimilarityFunc, x, y *Signal) (float64, error) {
	if x.Len() != y.Len() {
		return 0, fmt.Errorf("sigproc: similarity length mismatch %d vs %d", x.Len(), y.Len())
	}
	if x.Channels() != y.Channels() {
		return 0, fmt.Errorf("sigproc: similarity channel mismatch %d vs %d", x.Channels(), y.Channels())
	}
	c := x.Channels()
	if c == 0 {
		return 0, nil
	}
	var sum float64
	for i := 0; i < c; i++ {
		sum += f(x.Data[i], y.Data[i])
	}
	avg := sum / float64(c)
	if math.IsNaN(avg) || math.IsInf(avg, 0) {
		return 0, fmt.Errorf("%w: similarity is %v", ErrNonFinite, avg)
	}
	return avg, nil
}

// StackedSimilarity flattens all channels into one long vector before
// applying f. This is the alternative to MultiChannelSimilarity that keeps
// channel-wise information; it exists for the channel-averaging ablation.
func StackedSimilarity(f SimilarityFunc, x, y *Signal) (float64, error) {
	if x.Len() != y.Len() || x.Channels() != y.Channels() {
		return 0, fmt.Errorf("sigproc: stacked similarity shape mismatch")
	}
	n, c := x.Len(), x.Channels()
	u := make([]float64, 0, n*c)
	v := make([]float64, 0, n*c)
	for i := 0; i < c; i++ {
		u = append(u, x.Data[i]...)
		v = append(v, y.Data[i]...)
	}
	return f(u, v), nil
}
