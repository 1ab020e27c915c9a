package ingest

import (
	"math/rand"
	"reflect"
	"testing"

	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

// TestMonitorSinkCycleAllocs pools one sink across sessions streamed as
// 4-sample frames, channels interleaved frame by frame as a session worker
// delivers them. Every session must reach the first session's verdict, and
// once the sink is warm a whole Acquire/Push/Finish/Release cycle may
// allocate only the verdict Finish returns: de-interleaving a frame, the
// chunk list, the health windows and the monitors' buffers all reuse sink
// scratch.
func TestMonitorSinkCycleAllocs(t *testing.T) {
	fx := fixture(t)
	pool := fx.pool(1)
	rng := rand.New(rand.NewSource(31))
	type push struct {
		ch     int
		values []float64
	}
	var pushes []push
	runs := []*sigproc.Signal{perturbed(rng, fx.refs[0]), perturbed(rng, fx.refs[1])}
	for pos := 0; pos < runs[0].Len(); pos += 4 {
		for ch, r := range runs {
			end := min(pos+4, r.Len())
			var values []float64
			for i := pos; i < end; i++ {
				for l := range r.Data {
					values = append(values, r.Data[l][i])
				}
			}
			pushes = append(pushes, push{ch, values})
		}
	}
	hello := &Frame{Channels: fx.specs}
	cycle := func() *Verdict {
		s, err := pool.Acquire(hello)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pushes {
			if err := s.Push(p.ch, p.values); err != nil {
				t.Fatal(err)
			}
		}
		v, err := s.Finish("eos")
		if err != nil {
			t.Fatal(err)
		}
		pool.Release(s)
		return v
	}
	first := cycle()
	if got := cycle(); !reflect.DeepEqual(got, first) {
		t.Fatalf("recycled sink verdict %+v, first session %+v", got, first)
	}

	if scratch.RaceEnabled {
		return // sync.Pool drops items at random under -race
	}
	allocs := testing.AllocsPerRun(3, func() { cycle() })
	// Finish builds the verdict: the Verdict itself, its channel list (two
	// appends) and the monitor's channel-state snapshot it reads from.
	// Anything more is per-push or per-session allocation on the fused path
	// — this stream makes over a thousand pushes.
	if allocs > 4 {
		t.Errorf("a warm Acquire/Push/Finish/Release cycle allocates %.1f objects over %d pushes, want <= 4 (the verdict)", allocs, len(pushes))
	}
}
