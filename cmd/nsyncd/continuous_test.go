package main

import (
	"math/rand"
	"testing"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/ingest"
	"nsync/internal/registry"
	"nsync/internal/sigproc"
)

// smoothNoise is band-limited noise: white noise under a short moving
// average, so a sub-sample alignment error does not decorrelate it.
func smoothNoise(rng *rand.Rand, rate float64, n int) *sigproc.Signal {
	const ma = 5
	white := make([]float64, n+ma)
	for i := range white {
		white[i] = rng.NormFloat64()
	}
	s := sigproc.New(rate, 1, n)
	for i := range s.Data[0] {
		var sum float64
		for _, w := range white[i : i+ma] {
			sum += w
		}
		s.Data[0][i] = sum / ma
	}
	return s
}

// benignPrint returns a copy of ref with mild time noise (a sample skipped
// or repeated every 300) and small amplitude noise.
func benignPrint(rng *rand.Rand, ref *sigproc.Signal) *sigproc.Signal {
	out := &sigproc.Signal{Rate: ref.Rate}
	for pos := 0; pos+300 <= ref.Len(); {
		_ = out.Concat(ref.Slice(pos, pos+300))
		pos += 300
		if rng.Intn(2) == 0 {
			pos++
		} else {
			pos--
		}
	}
	for i := range out.Data[0] {
		out.Data[0][i] += 0.05 * rng.NormFloat64()
	}
	return out
}

// TestCaptureAdmissionDuringAbsorb admits and releases sessions through the
// capture factory while finished benign sessions are absorbed into the
// re-baseline engine's references. Admission must not read a reference the
// engine is blending into; under -race, a read without the controller's
// mutex is reported as a data race.
func TestCaptureAdmissionDuringAbsorb(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	ref := smoothNoise(rng, 100, 3000)
	params := dwm.Params{TWin: 0.5, THop: 0.25, TExt: 0.2, TSigma: 0.1, Eta: 0.1}
	det, err := core.NewDetector(ref, core.Config{
		Sync: &core.DWMSynchronizer{Params: params},
		OCC:  core.OCCConfig{R: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var feats []*core.Features
	for i := 0; i < 6; i++ {
		f, err := det.Features(benignPrint(rng, ref))
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, f)
	}
	if err := det.TrainFromFeatures(feats); err != nil {
		t.Fatal(err)
	}
	th, err := det.Thresholds()
	if err != nil {
		t.Fatal(err)
	}
	chans := []core.FusedMonitorChannel{{Name: "ACC", Reference: ref, Params: params, Thresholds: th}}
	specs := []ingest.ChannelSpec{{Name: "ACC", Lanes: 1, Rate: ref.Rate}}
	boot := &registry.Model{Channels: []registry.ChannelModel{{
		Name: "ACC", Reference: ref, Params: params, Thresholds: th,
	}}}
	pool := ingest.NewSharedPool(nil)
	bootVersion, err := pool.Register(boot)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := newController(continuousOptions{
		Alpha: 0.3, Window: 8, Margin: 1,
		RebaseAfter: 1 << 20, // never propose: this test is about admission
	}, chans, [][]*core.Features{feats}, specs, pool, bootVersion)
	if err != nil {
		t.Fatal(err)
	}
	factory := &captureFactory{pool: pool, ctrl: ctrl}

	prints := make([][]float64, 4)
	for i := range prints {
		prints[i] = benignPrint(rng, ref).Data[0]
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, lanes := range prints {
			ctrl.observe(&ingest.Verdict{}, [][]float64{lanes})
		}
	}()
	hello := &ingest.Frame{Type: ingest.FrameHello, SessionID: "s", Channels: specs}
	admitted := 0
	for running := true; running; admitted++ {
		select {
		case <-done:
			running = false
		default:
		}
		s, err := factory.Acquire(hello)
		if err != nil {
			t.Fatal(err)
		}
		cs := s.(*captureSink)
		if want := ref.Len() * 3 / 2; cs.caps[0] != want {
			t.Fatalf("capture cap = %d, want %d", cs.caps[0], want)
		}
		factory.Release(s)
	}

	ctrl.mu.Lock()
	absorbed := ctrl.eng.Absorbed()
	ctrl.mu.Unlock()
	if absorbed == 0 {
		t.Fatal("no print was absorbed: the test never wrote a reference")
	}
	t.Logf("%d admissions while %d of %d prints were absorbed", admitted, absorbed, len(prints))
}
