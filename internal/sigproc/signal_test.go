package sigproc

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewShape(t *testing.T) {
	s := New(100, 3, 50)
	if got := s.Channels(); got != 3 {
		t.Errorf("Channels() = %d, want 3", got)
	}
	if got := s.Len(); got != 50 {
		t.Errorf("Len() = %d, want 50", got)
	}
	if got := s.Duration(); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Duration() = %v, want 0.5", got)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(100, -1, 10)
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		sig  *Signal
	}{
		{"nil signal", nil},
		{"ragged channels", &Signal{Rate: 1, Data: [][]float64{{1, 2}, {1}}}},
		{"zero rate nonempty", &Signal{Rate: 0, Data: [][]float64{{1, 2}}}},
		{"negative rate", &Signal{Rate: -5, Data: [][]float64{{1}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.sig.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestEmptySignalIsValid(t *testing.T) {
	var s Signal
	if err := s.Validate(); err != nil {
		t.Errorf("empty signal Validate() = %v, want nil", err)
	}
	if s.Len() != 0 || s.Channels() != 0 || s.Duration() != 0 {
		t.Error("empty signal should have zero len, channels, duration")
	}
}

func TestSliceSharesBacking(t *testing.T) {
	s := New(10, 2, 10)
	v := s.Slice(2, 5)
	v.Data[0][0] = 42
	if s.Data[0][2] != 42 {
		t.Error("Slice must share backing storage")
	}
	if v.Len() != 3 {
		t.Errorf("sliced Len() = %d, want 3", v.Len())
	}
}

func TestSliceClamped(t *testing.T) {
	s := New(10, 1, 10)
	tests := []struct {
		n1, n2  int
		wantLen int
	}{
		{-5, 3, 3},
		{8, 20, 2},
		{-5, 20, 10},
		{5, 2, 0},
		{20, 30, 0},
	}
	for _, tt := range tests {
		if got := s.SliceClamped(tt.n1, tt.n2).Len(); got != tt.wantLen {
			t.Errorf("SliceClamped(%d,%d).Len() = %d, want %d", tt.n1, tt.n2, got, tt.wantLen)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := New(10, 2, 4)
	s.Data[1][3] = 7
	c := s.Clone()
	c.Data[1][3] = 99
	if s.Data[1][3] != 7 {
		t.Error("Clone must not share storage")
	}
}

func TestScaleOffset(t *testing.T) {
	s := FromSamples(1, []float64{1, 2, 3})
	s.Scale(2).Offset(1)
	want := []float64{3, 5, 7}
	for i, w := range want {
		if s.Data[0][i] != w {
			t.Errorf("sample %d = %v, want %v", i, s.Data[0][i], w)
		}
	}
}

func TestMeanStdRMS(t *testing.T) {
	s := &Signal{Rate: 1, Data: [][]float64{{1, 2, 3, 4}, {0, 0, 0, 0}}}
	if got := s.Mean(); !almostEqual(got[0], 2.5, 1e-12) || got[1] != 0 {
		t.Errorf("Mean() = %v", got)
	}
	if got := s.Std(); !almostEqual(got[0], math.Sqrt(1.25), 1e-12) || got[1] != 0 {
		t.Errorf("Std() = %v", got)
	}
	if got := s.RMS(); !almostEqual(got[0], math.Sqrt(7.5), 1e-12) {
		t.Errorf("RMS() = %v", got)
	}
}

func TestConcat(t *testing.T) {
	a := FromSamples(10, []float64{1, 2})
	b := FromSamples(10, []float64{3})
	if err := a.Concat(b); err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if a.Len() != 3 || a.Data[0][2] != 3 {
		t.Errorf("after Concat: len=%d data=%v", a.Len(), a.Data[0])
	}
	c := New(10, 2, 1)
	if err := a.Concat(c); err == nil {
		t.Error("Concat with channel mismatch should error")
	}
}

func TestConcatIntoEmpty(t *testing.T) {
	dst := &Signal{Rate: 10}
	src := New(10, 3, 5)
	if err := dst.Concat(src); err != nil {
		t.Fatalf("Concat into empty: %v", err)
	}
	if dst.Channels() != 3 || dst.Len() != 5 {
		t.Errorf("shape = (%d, %d), want (3, 5)", dst.Channels(), dst.Len())
	}
}
