package rebase

import (
	"math/rand"
	"reflect"
	"testing"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/sigproc"
)

func testParams() dwm.Params {
	return dwm.Params{TWin: 0.5, THop: 0.25, TExt: 0.2, TSigma: 0.1, Eta: 0.1}
}

// noiseSig is band-limited noise: white noise smoothed with a short moving
// average, the way a physical side channel is band-limited by its sensor.
// Pure white noise would be an adversarial reference for the warp-and-blend
// update — its autocorrelation is zero at lag 1, so any sub-sample
// alignment error injects fully decorrelated content.
func noiseSig(rng *rand.Rand, rate float64, n int) *sigproc.Signal {
	const ma = 5
	white := make([]float64, n+ma)
	for i := range white {
		white[i] = rng.NormFloat64()
	}
	s := sigproc.New(rate, 1, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < ma; j++ {
			sum += white[i+j]
		}
		s.Data[0][i] = sum / ma
	}
	return s
}

// jittered returns a copy of b with mild time noise plus small amplitude
// noise, the same benign-print model the core tests use.
func jittered(rng *rand.Rand, b *sigproc.Signal, segLen int) *sigproc.Signal {
	out := &sigproc.Signal{Rate: b.Rate}
	pos := 0
	for pos+segLen <= b.Len() {
		_ = out.Concat(b.Slice(pos, pos+segLen))
		pos += segLen
		if rng.Intn(2) == 0 {
			pos++
		} else if pos > 0 {
			pos--
		}
	}
	for i := range out.Data[0] {
		out.Data[0][i] += 0.05 * rng.NormFloat64()
	}
	return out
}

// attack returns a benign-like print whose second half is unrelated noise.
func attack(rng *rand.Rand, b *sigproc.Signal) *sigproc.Signal {
	out := jittered(rng, b, 200)
	for i := out.Len() / 2; i < out.Len(); i++ {
		out.Data[0][i] = rng.NormFloat64() * 2
	}
	return out
}

// newTestEngine builds a single-channel engine seeded from train benign runs.
func newTestEngine(t *testing.T, cfg Config, ref *sigproc.Signal, train []*sigproc.Signal) *Engine {
	t.Helper()
	det, err := core.NewDetector(ref, core.Config{Sync: &core.DWMSynchronizer{Params: testParams()}})
	if err != nil {
		t.Fatal(err)
	}
	var feats []*core.Features
	for _, s := range train {
		f, err := det.Features(s)
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, f)
	}
	e, err := NewEngine(cfg, []Channel{{Name: "acc", Reference: ref, Params: testParams(), Train: feats}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineAbsorbsBenignPrints(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	ref := noiseSig(rng, 100, 3000)
	var train []*sigproc.Signal
	for i := 0; i < 8; i++ {
		train = append(train, jittered(rng, ref, 300))
	}
	e := newTestEngine(t, Config{Margin: 1, Window: 12}, ref, train)
	before := e.Reference(0)
	thBefore := e.Thresholds(0)
	res, err := e.Absorb([]*sigproc.Signal{jittered(rng, ref, 300)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Absorbed || res.Reason != "" {
		t.Fatalf("benign print rejected: %+v", res)
	}
	if e.Absorbed() != 1 || e.Rejected() != 0 {
		t.Fatalf("counters = %d/%d", e.Absorbed(), e.Rejected())
	}
	if reflect.DeepEqual(before.Data, e.Reference(0).Data) {
		t.Fatal("absorption did not move the reference")
	}
	if e.Reference(0).Len() != before.Len() {
		t.Fatal("absorption changed the reference length")
	}
	_ = thBefore // thresholds may or may not move; the snapshot must carry them
	snap := e.Snapshot()
	if len(snap) != 1 || snap[0].Name != "acc" || snap[0].Thresholds != e.Thresholds(0) {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The snapshot's reference is a copy, not a live alias.
	snap[0].Reference.Data[0][0] = 1e9
	if e.Reference(0).Data[0][0] == 1e9 {
		t.Fatal("Snapshot aliases the engine reference")
	}
}

func TestEngineRejectsAttackAndUnhealthyPrints(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ref := noiseSig(rng, 100, 3000)
	var train []*sigproc.Signal
	for i := 0; i < 8; i++ {
		train = append(train, jittered(rng, ref, 300))
	}
	e := newTestEngine(t, Config{Margin: 1, Window: 12}, ref, train)
	before := e.Reference(0)
	thBefore := e.Thresholds(0)

	res, err := e.Absorb([]*sigproc.Signal{attack(rng, ref)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Absorbed || !res.Fused.Intrusion {
		t.Fatalf("attack print absorbed: %+v", res)
	}

	flat := jittered(rng, ref, 300)
	for i := 1000; i < 1600; i++ {
		flat.Data[0][i] = 0
	}
	res, err = e.Absorb([]*sigproc.Signal{flat})
	if err != nil {
		t.Fatal(err)
	}
	if res.Absorbed || !res.Fused.Channels[0].Quarantined {
		t.Fatalf("unhealthy print absorbed: %+v", res)
	}
	if e.Rejected() != 2 || e.Absorbed() != 0 {
		t.Fatalf("counters = %d/%d", e.Absorbed(), e.Rejected())
	}
	// Rejection must mutate nothing.
	if !reflect.DeepEqual(before.Data, e.Reference(0).Data) || thBefore != e.Thresholds(0) {
		t.Fatal("rejected prints mutated the baseline")
	}

	if _, err := e.Absorb(nil); err == nil {
		t.Error("wrong signal count: want error")
	}
}

// TestPoisoningResistance is the satellite guarantee: a benign sequence with
// one embedded attack print leaves the rolling reference byte-identical to
// the attack-free sequence.
func TestPoisoningResistance(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	ref := noiseSig(rng, 100, 3000)
	var train []*sigproc.Signal
	for i := 0; i < 8; i++ {
		train = append(train, jittered(rng, ref, 300))
	}
	var benign []*sigproc.Signal
	for i := 0; i < 4; i++ {
		benign = append(benign, jittered(rng, ref, 300))
	}
	evil := attack(rng, ref)

	clean := newTestEngine(t, Config{Margin: 1, Window: 12}, ref, train)
	poisoned := newTestEngine(t, Config{Margin: 1, Window: 12}, ref, train)
	for i, s := range benign {
		if i == 2 {
			res, err := poisoned.Absorb([]*sigproc.Signal{evil})
			if err != nil {
				t.Fatal(err)
			}
			if res.Absorbed {
				t.Fatal("attack print absorbed")
			}
		}
		for _, e := range []*Engine{clean, poisoned} {
			res, err := e.Absorb([]*sigproc.Signal{s})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Absorbed {
				t.Fatalf("benign print %d rejected: %+v", i, res)
			}
		}
	}
	if poisoned.Rejected() != 1 {
		t.Fatalf("Rejected = %d, want 1", poisoned.Rejected())
	}
	if !reflect.DeepEqual(clean.Reference(0).Data, poisoned.Reference(0).Data) {
		t.Fatal("embedded attack print changed the rolling reference")
	}
	if clean.Thresholds(0) != poisoned.Thresholds(0) {
		t.Fatal("embedded attack print changed the recalibrated thresholds")
	}
}

func TestNewEngineErrors(t *testing.T) {
	if _, err := NewEngine(Config{}, nil); err == nil {
		t.Error("no channels: want error")
	}
	ref := sigproc.New(100, 1, 100)
	if _, err := NewEngine(Config{}, []Channel{{Name: "x", Reference: ref, Params: testParams()}}); err == nil {
		t.Error("no seed features: want error")
	}
	if _, err := NewEngine(Config{}, []Channel{{Name: "x", Reference: &sigproc.Signal{Rate: 100}, Params: testParams(), Train: []*core.Features{{}}}}); err == nil {
		t.Error("empty reference: want error")
	}
}
