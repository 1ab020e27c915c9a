// Package ids defines the common vocabulary shared by every intrusion
// detection system in the evaluation: the Run (one recorded printing
// process with all six side-channel signals plus metadata), the Raw vs
// Spectrogram transform, and the IDS interface that the five prior IDSs
// implement (NSYNC itself is evaluated by experiment.EvaluateNSYNC).
// Keeping it separate from the experiment harness lets baseline
// implementations and the harness depend on it without cycles.
package ids

import (
	"fmt"
	"sync"

	"nsync/internal/obs"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
	"nsync/internal/stft"
)

// Spectrogram-cache counters (see DESIGN.md §10): a hit returns a
// previously transformed signal; a miss pays one STFT. Requests that land
// on an entry another goroutine is still computing count as hits — they
// share that computation rather than starting one.
var (
	spectroCacheHits = obs.GetCounter("ids.spectro_cache.hits")
	spectroCacheMiss = obs.GetCounter("ids.spectro_cache.misses")
)

// Transform selects how a side-channel signal is presented to an IDS
// (Section VIII-A "Spectrograms": every IDS is evaluated on raw signals and
// on spectrograms).
type Transform int

// The two signal transforms of the evaluation.
const (
	Raw Transform = iota + 1
	Spectro
)

// String implements fmt.Stringer.
func (t Transform) String() string {
	switch t {
	case Raw:
		return "raw"
	case Spectro:
		return "spectro"
	default:
		return fmt.Sprintf("Transform(%d)", int(t))
	}
}

// Run is one recorded printing process: everything an IDS may look at.
type Run struct {
	// Printer is the profile name ("UM3", "RM3").
	Printer string
	// Label names the process ("Benign", "Void", "Speed0.95", ...).
	Label string
	// Malicious is the ground truth.
	Malicious bool
	// Seed identifies the simulated execution.
	Seed int64
	// Signals holds the captured side-channel signals.
	Signals map[sensor.Channel]*sigproc.Signal
	// SpectroConfigs maps each channel to its Table III transform.
	SpectroConfigs map[sensor.Channel]stft.Config
	// LayerTimes are the layer start times in seconds (ground truth from
	// the simulator; the paper obtained them manually for Gatlin's IDS).
	LayerTimes []float64
	// Duration is the total process duration in seconds.
	Duration float64

	// spectroMu guards the cache map; each entry's once makes the
	// transform itself run exactly once per channel, so concurrent Signal
	// calls on one run are safe and different channels still transform in
	// parallel.
	spectroMu    sync.Mutex
	spectroCache map[sensor.Channel]*spectroEntry
}

// spectroEntry is one lazily-computed spectrogram.
type spectroEntry struct {
	once sync.Once
	sig  *sigproc.Signal
	err  error
}

// Signal returns the run's signal for a channel under a transform.
// Spectrograms are computed lazily and cached on the run. Signal is safe
// for concurrent use.
func (r *Run) Signal(ch sensor.Channel, tf Transform) (*sigproc.Signal, error) {
	raw, ok := r.Signals[ch]
	if !ok {
		return nil, fmt.Errorf("ids: run %s/%s has no %v signal", r.Printer, r.Label, ch)
	}
	switch tf {
	case Raw:
		return raw, nil
	case Spectro:
		r.spectroMu.Lock()
		if r.spectroCache == nil {
			r.spectroCache = make(map[sensor.Channel]*spectroEntry)
		}
		e, ok := r.spectroCache[ch]
		if ok {
			spectroCacheHits.Inc()
		} else {
			spectroCacheMiss.Inc()
			e = &spectroEntry{}
			r.spectroCache[ch] = e
		}
		r.spectroMu.Unlock()
		e.once.Do(func() {
			cfg, ok := r.SpectroConfigs[ch]
			if !ok {
				e.err = fmt.Errorf("ids: no spectrogram config for %v", ch)
				return
			}
			spec, err := stft.Transform(raw, cfg)
			if err != nil {
				e.err = fmt.Errorf("ids: spectrogram %v: %w", ch, err)
				return
			}
			e.sig = spec
		})
		return e.sig, e.err
	default:
		return nil, fmt.Errorf("ids: unknown transform %v", tf)
	}
}

// DropSpectroCache releases cached spectrograms (datasets are large).
func (r *Run) DropSpectroCache() {
	r.spectroMu.Lock()
	r.spectroCache = nil
	r.spectroMu.Unlock()
}

// IDS is one intrusion detection system bound to a specific side channel
// and transform. Train receives the reference run plus benign training runs
// only (the one-class setting); Classify decides a single test run.
//
// Concurrency contract: Train is called once, alone; after it returns,
// implementations must not mutate receiver state in Classify, so the
// evaluation harness may call Classify concurrently on distinct runs.
// Every IDS in this module (the five baselines) satisfies this.
type IDS interface {
	// Name identifies the IDS in reports.
	Name() string
	Train(ref *Run, train []*Run) error
	Classify(obs *Run) (bool, error)
}
