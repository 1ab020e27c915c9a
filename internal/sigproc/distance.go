package sigproc

import (
	"fmt"
	"math"
)

// DistanceFunc measures how different two equal-length single-channel sample
// slices are. Lower is more similar. It is the d of Section VII-A.
type DistanceFunc func(u, v []float64) float64

// CorrelationDistance is Eq. (14): 1 - Pearson correlation. It is the
// NSYNC default because it is invariant to the overall gain of the signals,
// which for real side channels depends on sensor placement and ADC gain.
// Range is [0, 2]; identical (up to affine gain) windows score ~0.
func CorrelationDistance(u, v []float64) float64 {
	return 1 - Correlation(u, v)
}

// CosineDistance is 1 - cosine similarity, the metric used by
// Belikovetsky's IDS [5].
func CosineDistance(u, v []float64) float64 {
	return 1 - CosineSimilarity(u, v)
}

// MAE is the Mean Absolute Error, the point-by-point metric of Moore's
// IDS [18]. It is sensitive to gain.
func MAE(u, v []float64) float64 {
	n := len(u)
	if n == 0 {
		return 0
	}
	var sum float64
	for i := range u {
		sum += math.Abs(u[i] - v[i])
	}
	return sum / float64(n)
}

// Euclidean is the L2 distance. Sensitive to gain; provided for comparison
// (the paper discusses but rejects it for NSYNC).
func Euclidean(u, v []float64) float64 {
	var ss float64
	for i := range u {
		d := u[i] - v[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// Manhattan is the L1 distance. Sensitive to gain; provided for comparison.
func Manhattan(u, v []float64) float64 {
	var sum float64
	for i := range u {
		sum += math.Abs(u[i] - v[i])
	}
	return sum
}

// MultiChannelDistance applies d per channel along the time axis and
// averages across channels, mirroring MultiChannelSimilarity (Section
// VII-A: "calculate the distance metric along the time axis for each channel
// and then average the distance metrics across the channels").
func MultiChannelDistance(d DistanceFunc, x, y *Signal) (float64, error) {
	if x.Len() != y.Len() {
		return 0, fmt.Errorf("sigproc: distance length mismatch %d vs %d", x.Len(), y.Len())
	}
	if x.Channels() != y.Channels() {
		return 0, fmt.Errorf("sigproc: distance channel mismatch %d vs %d", x.Channels(), y.Channels())
	}
	c := x.Channels()
	if c == 0 {
		return 0, nil
	}
	var sum float64
	for i := 0; i < c; i++ {
		sum += d(x.Data[i], y.Data[i])
	}
	avg := sum / float64(c)
	if math.IsNaN(avg) || math.IsInf(avg, 0) {
		return 0, fmt.Errorf("%w: distance is %v", ErrNonFinite, avg)
	}
	return avg, nil
}

// MinFilter implements the spike-suppression filter of Eqs. (21)-(22): each
// output sample is the minimum of the trailing window of n input samples
// (including the current one). Windows that extend before index 0 are
// clipped. n < 1 returns a copy of the input.
//
// The implementation is the monotonic-deque trailing minimum: each index
// enters and leaves the deque at most once, so the filter is O(len(v))
// regardless of the window size, where the naive per-sample scan is
// O(len(v)*n). The deque front always holds the current window's minimum;
// candidates that can never win (an earlier sample >= a later one) are
// evicted from the back as they are dominated.
func MinFilter(v []float64, n int) []float64 {
	out := make([]float64, len(v))
	if n < 1 {
		copy(out, v)
		return out
	}
	dq := make([]int, 0, min(n, len(v))) // indexes into v, values strictly increasing
	head := 0                            // dq[head:] is the live deque
	for i := range v {
		if head < len(dq) && dq[head] <= i-n {
			head++ // front fell out of the trailing window
		}
		for len(dq) > head && v[dq[len(dq)-1]] >= v[i] {
			dq = dq[:len(dq)-1]
		}
		dq = append(dq, i)
		out[i] = v[dq[head]]
	}
	return out
}

// MovingAverage returns the trailing moving average with window n (clipped
// at the start), used by Belikovetsky's IDS.
func MovingAverage(v []float64, n int) []float64 {
	out := make([]float64, len(v))
	if n < 1 {
		copy(out, v)
		return out
	}
	var sum float64
	for i := range v {
		sum += v[i]
		if i >= n {
			sum -= v[i-n]
		}
		w := min(i+1, n)
		out[i] = sum / float64(w)
	}
	return out
}
