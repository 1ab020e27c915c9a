package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/experiment"
	"nsync/internal/ids"
	"nsync/internal/ingest"
	"nsync/internal/printer"
	"nsync/internal/registry"
	"nsync/internal/sigproc"
)

// nsyncdParams are cmd/nsyncd's default DWM flags: t_win 4, t_hop = t_win/2,
// t_ext 2, t_sigma = t_ext/2, eta 0.1.
var nsyncdParams = dwm.Params{TWin: 4, THop: 2, TExt: 2, TSigma: 1, Eta: 0.1}

// fixture is what one set-up builds: the generated roster and, for the
// fleet path, the trained model and the prints sessions replay.
type fixture struct {
	ds     *experiment.Dataset
	model  *registry.Model
	specs  []ingest.ChannelSpec
	prints []*print
}

// print is one test print as a fleet session streams it.
type print struct {
	label string
	// seconds is the simulated length of the print.
	seconds float64
	// signals holds one signal per model channel, in model order.
	signals []*sigproc.Signal
	// frames is the in-order send schedule: every channel cut into frames,
	// ordered by the sensor time at which each frame is complete.
	frames []frame
}

type frame struct {
	ch     int
	seq    uint64
	values []float64 // lane-interleaved, as on the wire
	// due is the sensor time, in seconds from the start of the print, at
	// which the frame's last sample exists.
	due float64
}

// setup generates the roster from seed and, for the fleet path, trains the
// model the way nsyncd does at boot: one DWM detector per channel on the
// reference and the training prints, thresholds at the scale's OCC margin,
// any-channel quorum (k=0).
func setup(w workload, scale experiment.Scale, seed int64) (*fixture, error) {
	ds, err := experiment.Generate(scale, printer.UM3(), seed)
	if err != nil {
		return nil, err
	}
	fx := &fixture{ds: ds}
	if w.eval {
		return fx, nil
	}
	fx.model = &registry.Model{K: 0}
	for _, ch := range w.channels {
		ref := ds.Ref.Signals[ch]
		det, err := core.NewDetector(ref, core.Config{
			Sync:    &core.DWMSynchronizer{Params: nsyncdParams},
			OCC:     core.OCCConfig{R: scale.OCCMarginNSYNC},
			Workers: runtime.NumCPU(),
		})
		if err != nil {
			return nil, err
		}
		var train []*sigproc.Signal
		for _, run := range ds.Train {
			train = append(train, run.Signals[ch])
		}
		if err := det.Train(train); err != nil {
			return nil, fmt.Errorf("train %v: %w", ch, err)
		}
		th, err := det.Thresholds()
		if err != nil {
			return nil, err
		}
		fx.model.Channels = append(fx.model.Channels, registry.ChannelModel{
			Name: ch.String(), Reference: ref, Params: nsyncdParams, Thresholds: th,
		})
		fx.specs = append(fx.specs, ingest.ChannelSpec{Name: ch.String(), Lanes: ref.Channels(), Rate: ref.Rate})
	}
	for _, run := range append(append([]*ids.Run(nil), ds.TestBenign...), ds.TestMalicious...) {
		p := &print{label: run.Label, seconds: run.Duration}
		for _, ch := range w.channels {
			p.signals = append(p.signals, run.Signals[ch])
		}
		p.frames = cutFrames(p.signals, w)
		fx.prints = append(fx.prints, p)
	}
	return fx, nil
}

// cutFrames cuts each channel into the workload's frames, interleaves the
// lanes of each once, and orders all frames by the time they are complete,
// as a live capture would release them.
func cutFrames(signals []*sigproc.Signal, w workload) []frame {
	var out []frame
	for ch, sig := range signals {
		lanes, n := sig.Channels(), sig.Len()
		buf := make([]float64, 0, n*lanes)
		for i := 0; i < n; i++ {
			for l := 0; l < lanes; l++ {
				buf = append(buf, sig.Data[l][i])
			}
		}
		size := w.frameSamples
		if w.frameSeconds > 0 {
			size = max(1, int(w.frameSeconds*sig.Rate+0.5))
		}
		for start := 0; start < n; start += size {
			end := min(start+size, n)
			out = append(out, frame{ch: ch, seq: uint64(start), values: buf[start*lanes : end*lanes],
				due: float64(end) / sig.Rate})
		}
	}
	// A stable sort by completion time keeps channel order on ties.
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// expectedVerdicts computes, for every print a session used, the verdict a
// fresh monitor built from the model gives when fed the print exactly as a
// session sends it: the same frames in the same order, repaired by a fresh
// resequencer per channel, then end of stream. The fused verdict depends on
// how samples are chunked (it is recomputed after every push), so the
// oracle replays the chunking; it shares no state with the server. The
// prints are judged in parallel.
func expectedVerdicts(fx *fixture, w workload, seed int64, used []bool) ([]*ingest.Verdict, error) {
	out := make([]*ingest.Verdict, len(fx.prints))
	errs := make([]error, len(fx.prints))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := range fx.prints {
		if !used[i] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = replayVerdict(fx, i, sendOrder(fx.prints[i], w, seed, i))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func replayVerdict(fx *fixture, idx int, order []int) (*ingest.Verdict, error) {
	fm, err := fx.model.Monitor()
	if err != nil {
		return nil, err
	}
	sink := ingest.NewMonitorSink(fm, fx.specs)
	reseq := make([]*ingest.Resequencer, len(fx.specs))
	for i, spec := range fx.specs {
		reseq[i] = ingest.NewResequencer(spec.Lanes, ingest.ResequencerConfig{})
	}
	push := func(ch int, values []float64) error {
		if len(values) == 0 {
			return nil
		}
		return sink.Push(ch, values)
	}
	p := fx.prints[idx]
	for _, i := range order {
		f := p.frames[i]
		released, err := reseq[f.ch].Offer(f.seq, f.values)
		if err != nil {
			return nil, err
		}
		if err := push(f.ch, released); err != nil {
			return nil, err
		}
	}
	for ch, sig := range p.signals {
		if err := reseq[ch].SetEOS(uint64(sig.Len())); err != nil {
			return nil, err
		}
		if err := push(ch, reseq[ch].Flush()); err != nil {
			return nil, err
		}
	}
	return sink.Finish("")
}

// sameVerdict compares two verdicts alert for alert, ignoring how the
// session ended.
func sameVerdict(got, want *ingest.Verdict) bool {
	if got == nil || want == nil {
		return got == want
	}
	return got.Intrusion == want.Intrusion && slices.Equal(got.Alerts, want.Alerts) &&
		slices.Equal(got.Channels, want.Channels)
}
