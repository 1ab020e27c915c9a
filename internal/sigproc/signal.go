// Package sigproc provides the multi-channel signal representation and the
// basic signal-processing primitives used throughout the NSYNC framework:
// similarity functions, distance metrics, window functions, filtering, and
// resampling.
//
// A Signal follows the notation of Section V-A of the paper: x[n, c] is the
// nth sample of the cth channel, n = 0..N-1, c = 0..C-1, sampled at Rate Hz.
package sigproc

import (
	"errors"
	"fmt"
	"math"
)

// Signal is a finite, uniformly sampled, multi-channel time series.
//
// Data is channel-major: Data[c][n] is sample n of channel c. All channels
// must have the same length. The zero value is an empty signal.
type Signal struct {
	// Rate is the sampling frequency in Hz.
	Rate float64
	// Data holds one slice per channel; all slices share a common length.
	Data [][]float64
}

// New allocates a zeroed signal with the given number of channels and
// samples. A single backing array is used for cache friendliness.
func New(rate float64, channels, samples int) *Signal {
	if channels < 0 || samples < 0 {
		panic("sigproc: negative dimensions")
	}
	backing := make([]float64, channels*samples)
	data := make([][]float64, channels)
	for c := range data {
		data[c], backing = backing[:samples:samples], backing[samples:]
	}
	return &Signal{Rate: rate, Data: data}
}

// FromSamples builds a single-channel signal that shares the given slice.
func FromSamples(rate float64, samples []float64) *Signal {
	return &Signal{Rate: rate, Data: [][]float64{samples}}
}

// Len returns N, the number of samples per channel.
func (s *Signal) Len() int {
	if s == nil || len(s.Data) == 0 {
		return 0
	}
	return len(s.Data[0])
}

// Channels returns C, the number of channels.
func (s *Signal) Channels() int {
	if s == nil {
		return 0
	}
	return len(s.Data)
}

// Duration returns the signal length in seconds (N / Rate).
func (s *Signal) Duration() float64 {
	if s == nil || s.Rate <= 0 {
		return 0
	}
	return float64(s.Len()) / s.Rate
}

// ErrNonFinite reports NaN or infinite samples where finite values are
// required.
var ErrNonFinite = errors.New("sigproc: non-finite sample")

// CheckFinite scans every sample and reports the first NaN or infinity,
// identifying its channel and index. A corrupted capture (DMA glitch, bad
// float decode, divide-by-zero upstream) should fail here, at ingestion,
// rather than silently poisoning correlation sums downstream.
func (s *Signal) CheckFinite() error {
	if s == nil {
		return nil
	}
	for c, ch := range s.Data {
		for i, v := range ch {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: channel %d sample %d is %v", ErrNonFinite, c, i, v)
			}
		}
	}
	return nil
}

// Validate reports structural problems: ragged channels or a non-positive
// rate on a non-empty signal.
func (s *Signal) Validate() error {
	if s == nil {
		return errors.New("sigproc: nil signal")
	}
	n := s.Len()
	for c, ch := range s.Data {
		if len(ch) != n {
			return fmt.Errorf("sigproc: channel %d has %d samples, want %d", c, len(ch), n)
		}
	}
	if n > 0 && s.Rate <= 0 {
		return fmt.Errorf("sigproc: non-positive rate %v", s.Rate)
	}
	return nil
}

// Slice returns the view x[n1:n2] across all channels, following the paper's
// x[n1:n2] notation (n1 inclusive, n2 exclusive). The returned signal shares
// backing storage with s. Slice panics if the range is out of bounds, like a
// Go slice expression.
func (s *Signal) Slice(n1, n2 int) *Signal {
	out := &Signal{Rate: s.Rate, Data: make([][]float64, len(s.Data))}
	for c := range s.Data {
		out.Data[c] = s.Data[c][n1:n2]
	}
	return out
}

// SliceInto is Slice writing the channel headers into dst and returning it,
// so a loop sliding a window over s can reuse one view instead of
// allocating a Signal per position. The view shares sample memory with s,
// like Slice; dst must not be s itself.
func (s *Signal) SliceInto(dst *Signal, n1, n2 int) *Signal {
	dst.Rate = s.Rate
	if cap(dst.Data) >= len(s.Data) {
		dst.Data = dst.Data[:len(s.Data)]
	} else {
		dst.Data = make([][]float64, len(s.Data))
	}
	for c := range s.Data {
		dst.Data[c] = s.Data[c][n1:n2]
	}
	return dst
}

// SliceClamped is Slice with the range clipped to [0, Len]. Useful at signal
// boundaries where the paper's windows may extend past the data.
func (s *Signal) SliceClamped(n1, n2 int) *Signal {
	n := s.Len()
	n1 = max(0, min(n1, n))
	n2 = max(n1, min(n2, n))
	return s.Slice(n1, n2)
}

// Clone returns a deep copy of s.
func (s *Signal) Clone() *Signal {
	out := New(s.Rate, s.Channels(), s.Len())
	for c := range s.Data {
		copy(out.Data[c], s.Data[c])
	}
	return out
}

// Scale multiplies every sample by gain, in place, and returns s.
func (s *Signal) Scale(gain float64) *Signal {
	for _, ch := range s.Data {
		for i := range ch {
			ch[i] *= gain
		}
	}
	return s
}

// Offset adds off to every sample, in place, and returns s.
func (s *Signal) Offset(off float64) *Signal {
	for _, ch := range s.Data {
		for i := range ch {
			ch[i] += off
		}
	}
	return s
}

// Mean returns the per-channel means.
func (s *Signal) Mean() []float64 {
	out := make([]float64, s.Channels())
	n := s.Len()
	if n == 0 {
		return out
	}
	for c, ch := range s.Data {
		out[c] = mean(ch)
	}
	return out
}

// Std returns the per-channel population standard deviations.
func (s *Signal) Std() []float64 {
	out := make([]float64, s.Channels())
	n := s.Len()
	if n == 0 {
		return out
	}
	for c, ch := range s.Data {
		m := mean(ch)
		var ss float64
		for _, v := range ch {
			d := v - m
			ss += d * d
		}
		out[c] = math.Sqrt(ss / float64(n))
	}
	return out
}

// RMS returns the per-channel root-mean-square values.
func (s *Signal) RMS() []float64 {
	out := make([]float64, s.Channels())
	n := s.Len()
	if n == 0 {
		return out
	}
	for c, ch := range s.Data {
		var ss float64
		for _, v := range ch {
			ss += v * v
		}
		out[c] = math.Sqrt(ss / float64(n))
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Concat appends all samples of other to s. Both signals must have the same
// channel count; the rate of s is kept.
func (s *Signal) Concat(other *Signal) error {
	if s.Channels() == 0 {
		s.Data = make([][]float64, other.Channels())
	}
	if other.Channels() != s.Channels() {
		return fmt.Errorf("sigproc: concat %d channels onto %d", other.Channels(), s.Channels())
	}
	for c := range s.Data {
		s.Data[c] = append(s.Data[c], other.Data[c]...)
	}
	return nil
}

// DropFront removes the first n samples of every channel in place,
// retaining the backing capacity. Streaming consumers use it to trim
// consumed samples from a growing buffer without cloning the tail.
func (s *Signal) DropFront(n int) {
	for c, ch := range s.Data {
		s.Data[c] = ch[:copy(ch, ch[n:])]
	}
}
