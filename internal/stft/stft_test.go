package stft

import (
	"math"
	"math/rand"
	"testing"

	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

func chirpSignal(rate float64, seconds float64) *sigproc.Signal {
	n := int(rate * seconds)
	s := sigproc.New(rate, 1, n)
	for i := 0; i < n; i++ {
		t := float64(i) / rate
		f := 5 + 20*t // 5 Hz sweeping upward
		s.Data[0][i] = math.Sin(2 * math.Pi * f * t)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		rate    float64
		wantErr bool
	}{
		{"valid", Config{DeltaF: 10, DeltaT: 0.05}, 1000, false},
		{"zero DeltaF", Config{DeltaF: 0, DeltaT: 0.05}, 1000, true},
		{"zero DeltaT", Config{DeltaF: 10, DeltaT: 0}, 1000, true},
		{"zero rate", Config{DeltaF: 10, DeltaT: 0.05}, 0, true},
		{"window under one sample", Config{DeltaF: 5000, DeltaT: 0.05}, 100, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate(tt.rate)
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestGeometry(t *testing.T) {
	cfg := Config{DeltaF: 10, DeltaT: 0.05} // window 0.1 s, hop 0.05 s
	rate := 1000.0
	if got := cfg.WindowSamples(rate); got != 100 {
		t.Errorf("WindowSamples = %d, want 100", got)
	}
	if got := cfg.HopSamples(rate); got != 50 {
		t.Errorf("HopSamples = %d, want 50", got)
	}
	if got := cfg.Bins(rate); got != 51 {
		t.Errorf("Bins = %d, want 51", got)
	}
	if got := cfg.NumFrames(rate, 1000); got != 19 {
		t.Errorf("NumFrames = %d, want 19", got)
	}
	if got := cfg.NumFrames(rate, 99); got != 0 {
		t.Errorf("NumFrames(99 samples) = %d, want 0", got)
	}
}

func TestTransformShapeAndRate(t *testing.T) {
	s := chirpSignal(1000, 1.0)
	cfg := Config{DeltaF: 10, DeltaT: 0.05, Window: sigproc.Hann}
	spec, err := Transform(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Channels(); got != 51 {
		t.Errorf("channels = %d, want 51", got)
	}
	if got := spec.Len(); got != 19 {
		t.Errorf("frames = %d, want 19", got)
	}
	if !almostEqual(spec.Rate, 20, 1e-9) {
		t.Errorf("rate = %v, want 20", spec.Rate)
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTransformLocalizesTone(t *testing.T) {
	// A 50 Hz tone must put its energy in the 50 Hz bin.
	rate := 1000.0
	n := 1000
	s := sigproc.New(rate, 1, n)
	for i := 0; i < n; i++ {
		s.Data[0][i] = math.Sin(2 * math.Pi * 50 * float64(i) / rate)
	}
	cfg := Config{DeltaF: 10, DeltaT: 0.1} // bins at 0,10,...,500 Hz
	spec, err := Transform(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	toneBin := 5 // 50 Hz / 10 Hz
	for f := 0; f < spec.Len(); f++ {
		best, bestVal := 0, 0.0
		for k := 0; k < spec.Channels(); k++ {
			if v := spec.Data[k][f]; v > bestVal {
				best, bestVal = k, v
			}
		}
		if best != toneBin {
			t.Errorf("frame %d: peak bin %d, want %d", f, best, toneBin)
		}
	}
}

func TestTransformMultiChannelLayout(t *testing.T) {
	// Two input channels with tones at different frequencies; verify the
	// channel-major layout (bins of input channel c at c*Bins + k).
	rate := 1000.0
	n := 500
	s := sigproc.New(rate, 2, n)
	for i := 0; i < n; i++ {
		s.Data[0][i] = math.Sin(2 * math.Pi * 100 * float64(i) / rate)
		s.Data[1][i] = math.Sin(2 * math.Pi * 200 * float64(i) / rate)
	}
	cfg := Config{DeltaF: 20, DeltaT: 0.05}
	spec, err := Transform(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bins := cfg.Bins(rate)
	if spec.Channels() != 2*bins {
		t.Fatalf("channels = %d, want %d", spec.Channels(), 2*bins)
	}
	// Input channel 0, 100 Hz -> bin 5; input channel 1, 200 Hz -> bin 10.
	frame := spec.Len() / 2
	if spec.Data[5][frame] < spec.Data[10][frame] {
		t.Error("input channel 0 energy should be at bin 5 of block 0")
	}
	if spec.Data[bins+10][frame] < spec.Data[bins+5][frame] {
		t.Error("input channel 1 energy should be at bin 10 of block 1")
	}
}

func TestTransformLogCompression(t *testing.T) {
	s := chirpSignal(1000, 0.5)
	lin, err := Transform(s, Config{DeltaF: 20, DeltaT: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	logSpec, err := Transform(s, Config{DeltaF: 20, DeltaT: 0.05, Log: true})
	if err != nil {
		t.Fatal(err)
	}
	for c := range lin.Data {
		for i := range lin.Data[c] {
			want := math.Log10(1 + lin.Data[c][i])
			if !almostEqual(logSpec.Data[c][i], want, 1e-9) {
				t.Fatalf("log compression mismatch at [%d][%d]", c, i)
			}
		}
	}
}

func TestTransformErrors(t *testing.T) {
	s := chirpSignal(1000, 0.5)
	if _, err := Transform(s, Config{DeltaF: 0, DeltaT: 0.1}); err == nil {
		t.Error("invalid config: want error")
	}
	bad := &sigproc.Signal{Rate: 1000, Data: [][]float64{{1, 2}, {1}}}
	if _, err := Transform(bad, Config{DeltaF: 500, DeltaT: 0.002}); err == nil {
		t.Error("ragged signal: want error")
	}
}

func TestTransformEmptyInput(t *testing.T) {
	s := sigproc.New(1000, 1, 10) // shorter than the window
	spec, err := Transform(s, Config{DeltaF: 10, DeltaT: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Len() != 0 {
		t.Errorf("frames = %d, want 0", spec.Len())
	}
}

func randomSignal(rng *rand.Rand, rate float64, channels, n int) *sigproc.Signal {
	s := sigproc.New(rate, channels, n)
	for c := 0; c < channels; c++ {
		for i := 0; i < n; i++ {
			s.Data[c][i] = rng.NormFloat64()
		}
	}
	return s
}

// TestTransformPooledEquivalence runs Transform pooled+poisoned and
// unpooled; outputs must be byte-identical.
func TestTransformPooledEquivalence(t *testing.T) {
	scratch.SetPoison(true)
	defer scratch.SetPoison(false)
	rng := rand.New(rand.NewSource(44))
	sig := randomSignal(rng, 1000, 2, 900)
	cfg := Config{DeltaF: 10, DeltaT: 0.05, Window: sigproc.Hann, Log: true}
	if _, err := Transform(sig, cfg); err != nil { // warm the pool
		t.Fatal(err)
	}
	pooled, err := Transform(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratch.SetEnabled(false)
	fresh, err := Transform(sig, cfg)
	scratch.SetEnabled(true)
	if err != nil {
		t.Fatal(err)
	}
	for c := range fresh.Data {
		for f := range fresh.Data[c] {
			if pooled.Data[c][f] != fresh.Data[c][f] {
				t.Fatalf("bin %d frame %d: pooled %v != fresh %v", c, f, pooled.Data[c][f], fresh.Data[c][f])
			}
		}
	}
}
