package sigproc

import "math"

// WindowFunc generates an n-point window. Windows taper analysis frames to
// reduce spectral leakage in the STFT.
type WindowFunc func(n int) []float64

// Boxcar returns the rectangular window (all ones). The paper uses it for
// the PWR spectrogram (Table III).
func Boxcar(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Hann returns the Hann (raised-cosine) window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// BlackmanHarris returns the 4-term Blackman-Harris window, the window used
// for most spectrograms in Table III.
func BlackmanHarris(n int) []float64 {
	const (
		a0 = 0.35875
		a1 = 0.48829
		a2 = 0.14128
		a3 = 0.01168
	)
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		w[i] = a0 - a1*math.Cos(x) + a2*math.Cos(2*x) - a3*math.Cos(3*x)
	}
	return w
}
