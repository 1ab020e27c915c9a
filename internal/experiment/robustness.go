package experiment

import (
	"fmt"

	"nsync/internal/core"
	"nsync/internal/fault"
	"nsync/internal/ids"
	"nsync/internal/sensor"
)

// RobustnessConfig parameterizes the sensor-fault robustness sweep.
type RobustnessConfig struct {
	// Kinds are the fault types to sweep; default fault.AllKinds.
	Kinds []fault.Kind
	// Severities are the severity levels per kind; default {0.3, 1.0}.
	Severities []float64
	// OnsetFrac places the fault onset at this fraction of each run's
	// duration (default 0.35 — mid-print, after training-like healthy
	// lead-in).
	OnsetFrac float64
	// FaultChannel is the channel the fault is injected into; default ACC
	// (the paper's strongest channel, so degrading it is the worst case).
	FaultChannel sensor.Channel
	// FusedChannels are the channels the fused detector votes over; default
	// {ACC, MAG, AUD}, the strongly-correlated raw channels of Fig. 10.
	// FaultChannel must be among them.
	FusedChannels []sensor.Channel
	// Health tunes the quarantine checks (zero value = core defaults).
	Health core.HealthConfig
}

func (c RobustnessConfig) withDefaults() RobustnessConfig {
	if len(c.Kinds) == 0 {
		c.Kinds = fault.AllKinds
	}
	if len(c.Severities) == 0 {
		c.Severities = []float64{0.3, 1.0}
	}
	if c.OnsetFrac <= 0 {
		c.OnsetFrac = 0.35
	}
	if c.FaultChannel == 0 {
		c.FaultChannel = sensor.ACC
	}
	if len(c.FusedChannels) == 0 {
		c.FusedChannels = []sensor.Channel{sensor.ACC, sensor.MAG, sensor.AUD}
	}
	return c
}

// RobustnessRow is one cell of the robustness table: one (fault kind,
// severity) pair on one printer. Kind 0 / severity 0 is the clean baseline
// row.
type RobustnessRow struct {
	Printer string
	// Kind is the injected fault (0 means no fault).
	Kind fault.Kind
	// Severity is the fault severity.
	Severity float64
	// Single is the faulted channel's standalone NSYNC outcome, with no
	// health gating — what a single-sensor deployment would report.
	Single Outcome
	// FusedK1 and FusedK2 are the health-gated fused outcomes at vote
	// quorums 1 (OR) and 2.
	FusedK1, FusedK2 Outcome
	// QuarantineRate is the fraction of test runs whose faulted channel was
	// quarantined by health gating.
	QuarantineRate float64
}

// Label renders the fault column ("none", "dropout/0.30", ...).
func (r RobustnessRow) Label() string {
	if r.Kind == 0 {
		return "none"
	}
	return fmt.Sprintf("%v/%.2f", r.Kind, r.Severity)
}

// robustnessDataset evaluates the sweep on one printer's dataset with one
// fused detector over the fused channels: ClassifyChannel health-gates each
// signal and runs its channel's NSYNC pipeline, and each row fuses the
// per-channel verdicts at quorums 1 and 2.
//
// The expensive part of every cell is synchronizing the faulted channel's
// test signals; the other channels' signals are untouched by the fault, so
// their verdicts are computed once and reused across all cells. Cells fan
// out to the engine's worker pool and rows are collected by cell index, so
// the table is identical at every worker count.
func robustnessDataset(ds *Dataset, cfg RobustnessConfig) ([]RobustnessRow, error) {
	faultIdx := -1
	for i, ch := range cfg.FusedChannels {
		if ch == cfg.FaultChannel {
			faultIdx = i
		}
	}
	if faultIdx < 0 {
		return nil, fmt.Errorf("experiment: fault channel %v not among fused channels %v", cfg.FaultChannel, cfg.FusedChannels)
	}

	chans := make([]core.FusedChannel, len(cfg.FusedChannels))
	for i, ch := range cfg.FusedChannels {
		refSig, err := ds.Ref.Signal(ch, ids.Raw)
		if err != nil {
			return nil, err
		}
		chans[i] = core.FusedChannel{
			Name:      ch.String(),
			Reference: refSig,
			Config: core.Config{
				Sync: &core.DWMSynchronizer{Params: ds.Scale.DWM[ds.Printer]},
				OCC:  core.OCCConfig{R: ds.Scale.OCCMarginNSYNC},
			},
			Health: cfg.Health,
		}
	}
	fd, err := core.NewFusedDetector(chans, core.FusedConfig{})
	if err != nil {
		return nil, err
	}
	// Each channel trains on the engine pool for the per-run feature
	// extraction (as EvaluateNSYNC does).
	for i, ch := range cfg.FusedChannels {
		det := fd.Detector(i)
		feats, err := fanOut(ds.Train, func(_ int, run *ids.Run) (*core.Features, error) {
			s, err := run.Signal(ch, ids.Raw)
			if err != nil {
				return nil, err
			}
			return det.Features(s)
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: robustness train %s/%v: %w", ds.Printer, ch, err)
		}
		if err := det.TrainFromFeatures(feats); err != nil {
			return nil, err
		}
	}

	runs := ds.testRuns()

	// Clean per-channel verdicts, computed once and shared by every cell.
	clean, err := fanOut(runs, func(_ int, run *ids.Run) ([]core.ChannelVerdict, error) {
		verdicts := make([]core.ChannelVerdict, len(cfg.FusedChannels))
		for i, ch := range cfg.FusedChannels {
			sig, err := run.Signal(ch, ids.Raw)
			if err != nil {
				return nil, err
			}
			cv, err := fd.ClassifyChannel(i, sig)
			if err != nil {
				return nil, fmt.Errorf("experiment: robustness %s %s seed %d: %w", ds.Printer, run.Label, run.Seed, err)
			}
			verdicts[i] = cv
		}
		return verdicts, nil
	})
	if err != nil {
		return nil, err
	}

	// The clean baseline row.
	rows := []RobustnessRow{buildRow(ds.Printer, 0, 0, runs, clean, func(r int) core.ChannelVerdict {
		return clean[r][faultIdx]
	}, faultIdx)}

	type cell struct {
		kind     fault.Kind
		severity float64
	}
	var cells []cell
	for _, k := range cfg.Kinds {
		for _, sev := range cfg.Severities {
			cells = append(cells, cell{k, sev})
		}
	}
	cellRows, err := fanOut(cells, func(_ int, c cell) (RobustnessRow, error) {
		// Only the faulted channel needs re-synchronizing per run.
		faulted, err := fanOut(runs, func(_ int, run *ids.Run) (core.ChannelVerdict, error) {
			sig, err := run.Signal(cfg.FaultChannel, ids.Raw)
			if err != nil {
				return core.ChannelVerdict{}, err
			}
			inj, err := fault.NewInjector(run.Seed, fault.Spec{
				Kind:     c.kind,
				Severity: c.severity,
				Onset:    cfg.OnsetFrac * run.Duration,
			})
			if err != nil {
				return core.ChannelVerdict{}, err
			}
			bad, err := inj.Apply(sig)
			if err != nil {
				return core.ChannelVerdict{}, err
			}
			cv, err := fd.ClassifyChannel(faultIdx, bad)
			if err != nil {
				return core.ChannelVerdict{}, fmt.Errorf("experiment: robustness %v/%.2f %s seed %d: %w", c.kind, c.severity, run.Label, run.Seed, err)
			}
			return cv, nil
		})
		if err != nil {
			return RobustnessRow{}, err
		}
		return buildRow(ds.Printer, c.kind, c.severity, runs, clean, func(r int) core.ChannelVerdict {
			return faulted[r]
		}, faultIdx), nil
	})
	if err != nil {
		return nil, err
	}
	return append(rows, cellRows...), nil
}

// buildRow folds per-run channel verdicts into one table row. faulted(r)
// returns the faulted channel's verdict for run r; the other channels use
// their clean verdicts.
func buildRow(printer string, kind fault.Kind, severity float64, runs []*ids.Run, clean [][]core.ChannelVerdict, faulted func(int) core.ChannelVerdict, faultIdx int) RobustnessRow {
	row := RobustnessRow{Printer: printer, Kind: kind, Severity: severity}
	quarantined := 0
	for r, run := range runs {
		fs := faulted(r)
		if fs.Quarantined {
			quarantined++
		}
		// Single-channel deployment: the faulted channel's raw verdict, no
		// health gating (a quarantined-worthy signal still yields whatever
		// the pipeline says).
		row.Single.record(run.Label, run.Malicious, fs.Verdict.Intrusion)

		verdicts := append([]core.ChannelVerdict(nil), clean[r]...)
		verdicts[faultIdx] = fs
		row.FusedK1.record(run.Label, run.Malicious, core.FuseVerdicts(1, verdicts).Intrusion)
		row.FusedK2.record(run.Label, run.Malicious, core.FuseVerdicts(2, verdicts).Intrusion)
	}
	if len(runs) > 0 {
		row.QuarantineRate = float64(quarantined) / float64(len(runs))
	}
	return row
}

// Robustness sweeps detection accuracy versus fault kind × severity over
// every dataset: the faulted channel alone (no health gating) against
// health-gated fused detection at quorums 1 and 2. The first row per
// printer is the clean baseline — by construction the fused K=1 column
// there is the OR of the per-channel NSYNC verdicts, so a benign-path
// regression in the fused detector would show up as a baseline mismatch
// with Table VIII.
func Robustness(datasets map[string]*Dataset, cfg RobustnessConfig) ([]RobustnessRow, error) {
	cfg = cfg.withDefaults()
	var rows []RobustnessRow
	for _, ds := range orderedDatasets(datasets) {
		r, err := robustnessDataset(ds, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}
