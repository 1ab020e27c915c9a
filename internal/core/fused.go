package core

import (
	"errors"
	"fmt"

	"nsync/internal/sigproc"
)

// FusedChannel configures one side channel of a fused detector: its name
// (for reports), its reference signal, the per-channel NSYNC detector
// configuration, and the health checks that gate its vote.
type FusedChannel struct {
	Name      string
	Reference *sigproc.Signal
	Config    Config
	Health    HealthConfig
}

// FusedConfig tunes verdict fusion.
type FusedConfig struct {
	// K is the number of healthy channels that must vote intrusion before
	// the fused verdict is an intrusion (k-of-n voting). 0 means 1 — any
	// healthy channel suffices (OR fusion, matching the single-detector
	// discriminator's "any sub-module" rule). When fewer than K channels
	// remain healthy, the quorum shrinks to the healthy count, so a fleet
	// of dying sensors degrades to single-channel detection instead of
	// going silent.
	K int
}

// ChannelVerdict is one channel's health-gated contribution to a fused
// decision.
type ChannelVerdict struct {
	// Name is the channel name.
	Name string
	// Quarantined reports whether health gating disqualified the channel;
	// Health is the reason and HealthTime the first unhealthy window's
	// start in seconds.
	Quarantined bool
	Health      HealthReason
	HealthTime  float64
	// Verdict is the channel's NSYNC verdict. It is computed even for
	// quarantined channels (so reports can show what a sick channel would
	// have voted) except under NonFinite health, where the pipeline cannot
	// run at all.
	Verdict Verdict
}

// FusedVerdict is the k-of-n fusion of the per-channel verdicts.
type FusedVerdict struct {
	// Intrusion is the fused decision over healthy channels only.
	Intrusion bool
	// Votes counts healthy channels that voted intrusion; Healthy counts
	// channels that survived health gating; Needed is the quorum actually
	// applied (K clamped to the healthy count).
	Votes, Healthy, Needed int
	// Channels holds every channel's verdict, quarantined or not, in
	// configuration order.
	Channels []ChannelVerdict
}

// FusedDetector runs one NSYNC detector per side channel and fuses their
// verdicts, quarantining channels whose signals fail health checks. It is
// the graceful-degradation variant of Detector: a dying accelerometer
// lowers coverage instead of producing a stuck alarm or a silent miss.
type FusedDetector struct {
	channels []fusedChannel
	k        int
}

type fusedChannel struct {
	name   string
	det    *Detector
	ref    *sigproc.Signal
	health HealthConfig
}

// NewFusedDetector builds an untrained fused detector over the given
// channels.
func NewFusedDetector(channels []FusedChannel, cfg FusedConfig) (*FusedDetector, error) {
	if len(channels) == 0 {
		return nil, errors.New("core: fused detector needs at least one channel")
	}
	fd := &FusedDetector{k: cfg.K}
	for i, ch := range channels {
		det, err := NewDetector(ch.Reference, ch.Config)
		if err != nil {
			return nil, fmt.Errorf("core: fused channel %d (%s): %w", i, ch.Name, err)
		}
		fd.channels = append(fd.channels, fusedChannel{
			name:   ch.Name,
			det:    det,
			ref:    ch.Reference,
			health: ch.Health,
		})
	}
	return fd, nil
}

// Channels returns the channel names in configuration order.
func (fd *FusedDetector) Channels() []string {
	out := make([]string, len(fd.channels))
	for i, ch := range fd.channels {
		out[i] = ch.name
	}
	return out
}

// Detector returns the underlying per-channel detector (for threshold
// inspection or sharing a training pass).
func (fd *FusedDetector) Detector(i int) *Detector { return fd.channels[i].det }

// Train learns each channel's thresholds from its benign training runs.
// benignByChannel[i] holds the training signals for channel i, in the same
// order as the FusedChannel slice.
func (fd *FusedDetector) Train(benignByChannel [][]*sigproc.Signal) error {
	if len(benignByChannel) != len(fd.channels) {
		return fmt.Errorf("core: training sets for %d channels, want %d", len(benignByChannel), len(fd.channels))
	}
	for i, ch := range fd.channels {
		if err := ch.det.Train(benignByChannel[i]); err != nil {
			return fmt.Errorf("core: fused channel %s: %w", ch.name, err)
		}
	}
	return nil
}

// ClassifyChannel runs health checks and the NSYNC pipeline for channel i
// over its observed signal.
func (fd *FusedDetector) ClassifyChannel(i int, observed *sigproc.Signal) (ChannelVerdict, error) {
	if i < 0 || i >= len(fd.channels) {
		return ChannelVerdict{}, fmt.Errorf("core: fused channel index %d out of range", i)
	}
	ch := fd.channels[i]
	reason, at, err := CheckSignal(ch.ref, observed, ch.health)
	if err != nil {
		return ChannelVerdict{}, fmt.Errorf("core: fused channel %s: %w", ch.name, err)
	}
	cv := ChannelVerdict{
		Name:        ch.name,
		Quarantined: reason != HealthOK,
		Health:      reason,
		HealthTime:  at,
	}
	if reason == NonFinite {
		return cv, nil
	}
	v, err := ch.det.Classify(observed)
	if err != nil {
		return ChannelVerdict{}, fmt.Errorf("core: fused channel %s: %w", ch.name, err)
	}
	cv.Verdict = v
	return cv, nil
}

// Fuse combines per-channel verdicts under the detector's configured
// quorum. See FuseVerdicts.
func (fd *FusedDetector) Fuse(channels []ChannelVerdict) FusedVerdict {
	return FuseVerdicts(fd.k, channels)
}

// FuseVerdicts combines per-channel verdicts under k-of-n voting.
// Quarantined channels do not vote; the quorum is k (0 meaning 1) clamped
// to the number of healthy channels. With no healthy channels left the
// fused verdict is benign with Healthy = 0 — the caller can tell "no
// intrusion" from "no coverage".
func FuseVerdicts(k int, channels []ChannelVerdict) FusedVerdict {
	fv := FusedVerdict{Channels: channels}
	for _, cv := range channels {
		if cv.Quarantined {
			continue
		}
		fv.Healthy++
		if cv.Verdict.Intrusion {
			fv.Votes++
		}
	}
	fv.Needed, fv.Intrusion = quorum(k, fv.Votes, fv.Healthy)
	return fv
}

// quorum is the k-of-n rule batch and streaming fusion share: the quorum
// needed is k (0 meaning 1) clamped to the healthy count, and an intrusion
// needs at least one healthy channel and that many votes.
func quorum(k, votes, healthy int) (needed int, intrusion bool) {
	needed = max(k, 1)
	if healthy > 0 && needed > healthy {
		needed = healthy
	}
	return needed, healthy > 0 && votes >= needed
}

// Classify runs every channel over its observed signal and fuses the
// verdicts. observed[i] is channel i's captured signal.
func (fd *FusedDetector) Classify(observed []*sigproc.Signal) (FusedVerdict, error) {
	if len(observed) != len(fd.channels) {
		return FusedVerdict{}, fmt.Errorf("core: %d observed signals for %d channels", len(observed), len(fd.channels))
	}
	verdicts := make([]ChannelVerdict, len(fd.channels))
	for i := range fd.channels {
		cv, err := fd.ClassifyChannel(i, observed[i])
		if err != nil {
			return FusedVerdict{}, err
		}
		verdicts[i] = cv
	}
	return fd.Fuse(verdicts), nil
}
