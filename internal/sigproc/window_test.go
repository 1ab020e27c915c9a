package sigproc

import "testing"

func TestBoxcar(t *testing.T) {
	w := Boxcar(5)
	for i, v := range w {
		if v != 1 {
			t.Errorf("Boxcar[%d] = %v, want 1", i, v)
		}
	}
}

func TestHannEndpointsAndPeak(t *testing.T) {
	w := Hann(9)
	if !almostEqual(w[0], 0, 1e-12) || !almostEqual(w[8], 0, 1e-12) {
		t.Errorf("Hann endpoints = %v, %v, want 0", w[0], w[8])
	}
	if !almostEqual(w[4], 1, 1e-12) {
		t.Errorf("Hann center = %v, want 1", w[4])
	}
	if got := Hann(1); got[0] != 1 {
		t.Errorf("Hann(1) = %v, want [1]", got)
	}
}

func TestBlackmanHarrisProperties(t *testing.T) {
	w := BlackmanHarris(101)
	// Symmetric, peaks at center, tiny at edges.
	for i := 0; i < 50; i++ {
		if !almostEqual(w[i], w[100-i], 1e-9) {
			t.Fatalf("BH not symmetric at %d: %v vs %v", i, w[i], w[100-i])
		}
	}
	if w[50] < 0.99 {
		t.Errorf("BH center = %v, want ~1", w[50])
	}
	if w[0] > 1e-4 {
		t.Errorf("BH edge = %v, want ~6e-5", w[0])
	}
	if got := BlackmanHarris(1); got[0] != 1 {
		t.Errorf("BlackmanHarris(1) = %v, want [1]", got)
	}
}
