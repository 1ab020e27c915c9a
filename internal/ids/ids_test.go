package ids

import (
	"math/rand"
	"sync"
	"testing"

	"nsync/internal/sensor"
	"nsync/internal/sigproc"
	"nsync/internal/stft"
)

// fakeRun builds a Run with a single synthetic ACC signal derived from a
// shared base waveform plus per-seed noise and mild time noise.
func fakeRun(seed int64, base []float64, malicious bool) *Run {
	rng := rand.New(rand.NewSource(seed))
	sig := sigproc.New(100, 1, 0)
	pos := 0
	for pos < len(base) {
		end := min(pos+150, len(base))
		for i := pos; i < end; i++ {
			v := base[i] + 0.05*rng.NormFloat64()
			if malicious && i > len(base)/2 {
				v = rng.NormFloat64()
			}
			sig.Data[0] = append(sig.Data[0], v)
		}
		pos = end
		if rng.Intn(2) == 0 {
			pos++
		}
	}
	return &Run{
		Printer:   "TEST",
		Label:     "Benign",
		Malicious: malicious,
		Seed:      seed,
		Signals:   map[sensor.Channel]*sigproc.Signal{sensor.ACC: sig},
		SpectroConfigs: map[sensor.Channel]stft.Config{
			sensor.ACC: {DeltaF: 5, DeltaT: 0.1, Window: sigproc.Hann},
		},
		LayerTimes: []float64{0, 10},
		Duration:   float64(sig.Len()) / 100,
	}
}

func testBase(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	return base
}

func TestTransformString(t *testing.T) {
	if Raw.String() != "raw" || Spectro.String() != "spectro" {
		t.Error("transform names wrong")
	}
	if Transform(9).String() != "Transform(9)" {
		t.Error("unknown transform string wrong")
	}
}

func TestRunSignalRawAndSpectro(t *testing.T) {
	r := fakeRun(1, testBase(2000), false)
	raw, err := r.Signal(sensor.ACC, Raw)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Rate != 100 {
		t.Errorf("raw rate = %v", raw.Rate)
	}
	spec, err := r.Signal(sensor.ACC, Spectro)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Rate != 10 {
		t.Errorf("spectro rate = %v, want 10", spec.Rate)
	}
	if spec.Channels() != 11 { // 100/5 window -> 20 samples -> 11 bins
		t.Errorf("spectro channels = %d, want 11", spec.Channels())
	}
	// Cached: second call returns the identical object.
	spec2, err := r.Signal(sensor.ACC, Spectro)
	if err != nil {
		t.Fatal(err)
	}
	if spec != spec2 {
		t.Error("spectrogram not cached")
	}
	r.DropSpectroCache()
	spec3, err := r.Signal(sensor.ACC, Spectro)
	if err != nil {
		t.Fatal(err)
	}
	if spec3 == spec2 {
		t.Error("DropSpectroCache did not clear the cache")
	}
}

// TestRunSignalConcurrent hammers one run's lazy spectrogram cache from
// many goroutines; under -race it proves Signal is safe for the parallel
// evaluation engine, and every caller must see the same cached object.
func TestRunSignalConcurrent(t *testing.T) {
	r := fakeRun(3, testBase(2000), false)
	const goroutines = 16
	got := make([]*sigproc.Signal, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := r.Signal(sensor.ACC, Spectro)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = s
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d saw a different spectrogram object", g)
		}
	}
	// Concurrent raw reads and cache drops must not race either.
	wg = sync.WaitGroup{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Signal(sensor.ACC, Raw); err != nil {
				t.Error(err)
			}
			if _, err := r.Signal(sensor.ACC, Spectro); err != nil {
				t.Error(err)
			}
		}()
	}
	r.DropSpectroCache()
	wg.Wait()
}

func TestRunSignalErrors(t *testing.T) {
	r := fakeRun(1, testBase(500), false)
	if _, err := r.Signal(sensor.AUD, Raw); err == nil {
		t.Error("missing channel: want error")
	}
	if _, err := r.Signal(sensor.ACC, Transform(42)); err == nil {
		t.Error("unknown transform: want error")
	}
	r.SpectroConfigs = nil
	if _, err := r.Signal(sensor.ACC, Spectro); err == nil {
		t.Error("missing spectro config: want error")
	}
}
