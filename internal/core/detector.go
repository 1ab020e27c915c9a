package core

import (
	"context"
	"errors"
	"fmt"

	"nsync/internal/pool"
	"nsync/internal/sigproc"
)

// Config assembles an NSYNC IDS instance (Fig. 7): a dynamic synchronizer, a
// vertical distance metric, the spike filter, and the OCC margin.
type Config struct {
	// Sync is the dynamic synchronizer (DWM, DTW, or Null). Required.
	Sync Synchronizer
	// Dist is the vertical distance metric; nil means correlation distance
	// (Eq. 14), the NSYNC default.
	Dist sigproc.DistanceFunc
	// FilterWindow is the min-filter window; 0 means DefaultFilterWindow.
	FilterWindow int
	// OCC configures threshold learning.
	OCC OCCConfig
	// SubModules restricts detection to a subset of discriminator
	// sub-modules; empty means all three.
	SubModules []SubModule
	// Workers bounds the concurrent feature extractions in Train. 0 or 1
	// means serial (the safe default when the caller already fans out);
	// negative means one worker per CPU. Results are identical at every
	// setting: features are collected by training-run index.
	Workers int
}

func (c Config) withDefaults() (Config, error) {
	if c.Sync == nil {
		return c, errors.New("core: Config.Sync is required")
	}
	if c.Dist == nil {
		c.Dist = sigproc.CorrelationDistance
	}
	if c.FilterWindow == 0 {
		c.FilterWindow = DefaultFilterWindow
	}
	if len(c.SubModules) == 0 {
		c.SubModules = []SubModule{SubCDisp, SubHDist, SubVDist}
	}
	return c, nil
}

// Detector is a trained NSYNC IDS bound to one reference signal.
type Detector struct {
	cfg        Config
	reference  *sigproc.Signal
	thresholds Thresholds
	trained    bool
}

// NewDetector builds an untrained detector for the given reference signal
// (a recorded benign process, Section IV).
func NewDetector(reference *sigproc.Signal, cfg Config) (*Detector, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := reference.Validate(); err != nil {
		return nil, fmt.Errorf("core: reference: %w", err)
	}
	if reference.Len() == 0 {
		return nil, errors.New("core: empty reference signal")
	}
	return &Detector{cfg: cfg, reference: reference}, nil
}

// Reference returns the reference signal the detector was built around.
func (d *Detector) Reference() *sigproc.Signal { return d.reference }

// Features synchronizes one observed signal against the reference and
// returns the discriminator features. Features is safe for concurrent use:
// the detector configuration and reference are immutable after
// construction, and every stock Synchronizer builds its per-call state
// fresh inside Synchronize.
func (d *Detector) Features(observed *sigproc.Signal) (*Features, error) {
	al, err := d.cfg.Sync.Synchronize(observed, d.reference)
	if err != nil {
		return nil, err
	}
	return ComputeFeatures(al, d.cfg.Dist, d.cfg.FilterWindow)
}

// Train learns the discriminator thresholds from benign training runs via
// One-Class Classification. With Config.Workers set, the per-run feature
// extraction fans out to a bounded worker pool; thresholds are learned
// from features in training-run order either way.
func (d *Detector) Train(benign []*sigproc.Signal) error {
	return d.TrainContext(context.Background(), benign)
}

// TrainContext is Train under a caller-supplied context: cancelling it
// stops the per-run feature extraction and returns the context's error,
// which lets long training sessions honor Ctrl-C or a deadline.
func (d *Detector) TrainContext(ctx context.Context, benign []*sigproc.Signal) error {
	if len(benign) == 0 {
		return errors.New("core: Train needs at least one benign run")
	}
	workers := d.cfg.Workers
	if workers == 0 {
		workers = 1
	}
	feats, err := pool.Map(ctx, workers, benign,
		func(_ context.Context, i int, s *sigproc.Signal) (*Features, error) {
			f, err := d.Features(s)
			if err != nil {
				return nil, fmt.Errorf("core: training run %d: %w", i, err)
			}
			return f, nil
		})
	if err != nil {
		return err
	}
	th, err := LearnThresholds(feats, d.cfg.OCC)
	if err != nil {
		return err
	}
	d.thresholds = th
	d.trained = true
	return nil
}

// TrainFromFeatures learns thresholds from precomputed features, which lets
// callers reuse one synchronization pass across several detector variants.
func (d *Detector) TrainFromFeatures(feats []*Features) error {
	th, err := LearnThresholds(feats, d.cfg.OCC)
	if err != nil {
		return err
	}
	d.thresholds = th
	d.trained = true
	return nil
}

// Thresholds returns the learned critical values.
func (d *Detector) Thresholds() (Thresholds, error) {
	if !d.trained {
		return Thresholds{}, errors.New("core: detector is not trained")
	}
	return d.thresholds, nil
}

// SetThresholds installs explicit critical values (e.g. from a prior
// training session).
func (d *Detector) SetThresholds(t Thresholds) {
	d.thresholds = t
	d.trained = true
}

// Classify decides whether the observed signal is an intrusion.
func (d *Detector) Classify(observed *sigproc.Signal) (Verdict, error) {
	if !d.trained {
		return Verdict{}, errors.New("core: detector is not trained")
	}
	f, err := d.Features(observed)
	if err != nil {
		return Verdict{}, err
	}
	return d.thresholds.DetectSubset(f, d.cfg.SubModules...), nil
}
