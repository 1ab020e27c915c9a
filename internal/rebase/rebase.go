// Package rebase is the rolling re-baseline engine: the mitigation half of
// the continuous-operations loop. A detector trained once against a frozen
// reference decays as the fleet drifts (nozzle wear, belt tension, amplifier
// aging — see internal/sensor's drift injector); rebase counters the decay
// by absorbing verified-benign prints into an exponentially-weighted
// reference update and recalibrating the per-channel OCC thresholds from a
// rolling window of per-print features.
//
// The engine's defining property is its guardrail: absorption is gated on
// the CURRENT model's own fused verdict and health checks, and a rejected
// print mutates nothing. An attacker cannot steer the baseline toward a
// malicious process without first producing prints the current detector
// already accepts as benign — and a print flagged by any channel's health
// gate is rejected wholesale, so a dying sensor cannot smuggle garbage into
// the reference either. Absorption is fully deterministic (no randomness,
// no clocks), so a benign sequence with an embedded attack print leaves the
// reference byte-identical to the attack-free sequence.
package rebase

import (
	"errors"
	"fmt"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/obs"
	"nsync/internal/sigproc"
)

// Absorption metrics (see DESIGN.md §14): absorbed prints moved the
// baseline, rejected ones were refused by the guardrail.
var (
	absorbedCounter = obs.GetCounter("rebase.absorbed")
	rejectedCounter = obs.GetCounter("rebase.rejected")
)

// Config tunes the re-baseline engine. The zero value selects the defaults.
type Config struct {
	// Alpha is the exponential weight of a newly absorbed print in the
	// reference update: ref = (1-Alpha)*ref + Alpha*warped (default 0.25).
	// Small Alpha tracks drift slowly but resists outliers; Alpha 1 would
	// replace the reference outright.
	Alpha float64
	// Window is how many most-recent per-print feature rows (seed training
	// rows plus absorbed prints) feed threshold recalibration (default 8).
	Window int
	// Margin is the OCC margin r for recalibrated thresholds (default 0.3,
	// the paper's NSYNC setting).
	Margin float64
	// K is the fused-verdict quorum of the absorption guard; 0 means 1.
	K int
	// Health configures the per-channel health gate on candidate prints.
	Health core.HealthConfig
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 0.25
	}
	if c.Alpha > 1 {
		c.Alpha = 1
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Margin <= 0 {
		c.Margin = 0.3
	}
	return c
}

// Channel seeds one side channel of the engine.
type Channel struct {
	Name      string
	Reference *sigproc.Signal
	Params    dwm.Params
	// Train are the per-run features of the channel's original benign
	// training set; they seed the rolling threshold window so the first
	// recalibration is continuous with the shipped model.
	Train []*core.Features
}

// ChannelState is a snapshot of one channel's evolved baseline, in the form
// a detector model is built from.
type ChannelState struct {
	Name       string
	Reference  *sigproc.Signal
	Params     dwm.Params
	Thresholds core.Thresholds
}

// Result reports one Absorb call's decision.
type Result struct {
	// Absorbed reports whether the print moved the baseline.
	Absorbed bool
	// Fused is the current model's verdict on the candidate print — the
	// guard's evidence, quarantines included.
	Fused core.FusedVerdict
	// Reason is why the print was rejected ("" when absorbed).
	Reason string
}

// Engine is the rolling re-baseline engine. It is not safe for concurrent
// use; serialize Absorb calls (nsyncd guards it with a mutex).
type Engine struct {
	cfg      Config
	chans    []*engineChannel
	absorbed int
	rejected int
}

type engineChannel struct {
	name   string
	ref    *sigproc.Signal
	params dwm.Params
	sp     dwm.SampleParams
	feats  []*core.Features // rolling window, oldest first
	th     core.Thresholds
}

// NewEngine builds an engine over the given channels. References are cloned
// — the engine owns and mutates its own copies — and each channel's initial
// thresholds are learned from its seed training features, so before the
// first absorption the engine reproduces the shipped model exactly.
func NewEngine(cfg Config, channels []Channel) (*Engine, error) {
	if len(channels) == 0 {
		return nil, errors.New("rebase: need at least one channel")
	}
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg}
	for i, ch := range channels {
		if err := ch.Reference.Validate(); err != nil {
			return nil, fmt.Errorf("rebase: channel %d (%s): reference: %w", i, ch.Name, err)
		}
		if ch.Reference.Len() == 0 {
			return nil, fmt.Errorf("rebase: channel %d (%s): empty reference", i, ch.Name)
		}
		if len(ch.Train) == 0 {
			return nil, fmt.Errorf("rebase: channel %d (%s): need seed training features", i, ch.Name)
		}
		feats := append([]*core.Features(nil), ch.Train...)
		if len(feats) > cfg.Window {
			feats = feats[len(feats)-cfg.Window:]
		}
		th, err := core.LearnThresholds(feats, core.OCCConfig{R: cfg.Margin})
		if err != nil {
			return nil, fmt.Errorf("rebase: channel %d (%s): %w", i, ch.Name, err)
		}
		e.chans = append(e.chans, &engineChannel{
			name:   ch.Name,
			ref:    ch.Reference.Clone(),
			params: ch.Params,
			sp:     ch.Params.Samples(ch.Reference.Rate),
			feats:  feats,
			th:     th,
		})
	}
	return e, nil
}

// Absorb offers one print (one time-aligned signal per channel) to the
// engine. The print is judged by the CURRENT baseline first — health gate
// plus fused NSYNC verdict at quorum K — and only a print that is healthy
// on every channel and benign under the fused verdict is absorbed: each
// channel's observed signal is warped onto the reference timebase along its
// DWM alignment, blended into the reference with weight Alpha, and the
// channel's thresholds are recalibrated over the rolling feature window. A
// rejected print mutates no state at all.
func (e *Engine) Absorb(observed []*sigproc.Signal) (Result, error) {
	if len(observed) != len(e.chans) {
		return Result{}, fmt.Errorf("rebase: %d signals for %d channels", len(observed), len(e.chans))
	}

	// Phase A — judge with the current baseline. No state mutates here.
	type candidate struct {
		feats *core.Features
		hdisp []float64
	}
	cands := make([]candidate, len(e.chans))
	verdicts := make([]core.ChannelVerdict, len(e.chans))
	unhealthy := false
	for i, ch := range e.chans {
		reason, at, err := core.CheckSignal(ch.ref, observed[i], e.cfg.Health)
		if err != nil {
			return Result{}, fmt.Errorf("rebase: channel %s: %w", ch.name, err)
		}
		cv := core.ChannelVerdict{Name: ch.name, Quarantined: reason != core.HealthOK, Health: reason, HealthTime: at}
		if cv.Quarantined {
			unhealthy = true
			verdicts[i] = cv
			continue
		}
		sync := &core.DWMSynchronizer{Params: ch.params}
		al, err := sync.Synchronize(observed[i], ch.ref)
		if err != nil {
			return Result{}, fmt.Errorf("rebase: channel %s: %w", ch.name, err)
		}
		feats, err := core.ComputeFeatures(al, sigproc.CorrelationDistance, core.DefaultFilterWindow)
		if err != nil {
			return Result{}, fmt.Errorf("rebase: channel %s: %w", ch.name, err)
		}
		cv.Verdict = ch.th.Detect(feats)
		verdicts[i] = cv
		cands[i] = candidate{feats: feats, hdisp: al.HDisp()}
	}
	fused := core.FuseVerdicts(e.cfg.K, verdicts)
	switch {
	case unhealthy:
		// Stricter than the fused verdict: fusion tolerates quarantined
		// channels by shrinking the quorum, but a baseline update must not —
		// a print that cannot be verified benign on every channel is not
		// evidence about the fleet's drift.
		e.rejected++
		rejectedCounter.Inc()
		return Result{Fused: fused, Reason: "health gate flagged a channel"}, nil
	case fused.Intrusion:
		e.rejected++
		rejectedCounter.Inc()
		return Result{Fused: fused, Reason: "fused verdict flagged the print"}, nil
	}

	// Phase B — absorb.
	for i, ch := range e.chans {
		ch.absorb(observed[i], cands[i].hdisp, e.cfg.Alpha)
		ch.feats = append(ch.feats, cands[i].feats)
		if len(ch.feats) > e.cfg.Window {
			ch.feats = ch.feats[len(ch.feats)-e.cfg.Window:]
		}
		th, err := core.LearnThresholds(ch.feats, core.OCCConfig{R: e.cfg.Margin})
		if err != nil {
			return Result{}, fmt.Errorf("rebase: channel %s: %w", ch.name, err)
		}
		ch.th = th
	}
	e.absorbed++
	absorbedCounter.Inc()
	return Result{Absorbed: true, Fused: fused}, nil
}

// absorb blends the observed print into the channel reference. The observed
// signal lives on its own (jittered, drifted) timebase; blending it in raw
// would smear every transient sideways. Instead each reference sample q is
// paired with the observed sample the DWM alignment maps there — observed
// position q - h(q), with h interpolated piecewise-linearly between window
// centers — so the update tracks amplitude and noise drift without eroding
// the reference's timing structure. Reference samples the observed print
// has no content for (alignment running off either end) keep their value.
func (ch *engineChannel) absorb(observed *sigproc.Signal, hdisp []float64, alpha float64) {
	if len(hdisp) == 0 || observed.Len() == 0 {
		return
	}
	n := ch.ref.Len()
	on := observed.Len()
	hop, win := float64(ch.sp.NHop), ch.sp.NWin
	// h at reference position q, interpolated between window centers.
	hAt := func(q float64) float64 {
		c := (q - float64(win)/2) / hop // fractional window index
		if c <= 0 {
			return hdisp[0]
		}
		if c >= float64(len(hdisp)-1) {
			return hdisp[len(hdisp)-1]
		}
		j := int(c)
		frac := c - float64(j)
		return hdisp[j]*(1-frac) + hdisp[j+1]*frac
	}
	for c := range ch.ref.Data {
		if c >= observed.Channels() {
			break
		}
		refLane, obsLane := ch.ref.Data[c], observed.Data[c]
		for q := 0; q < n; q++ {
			pos := float64(q) - hAt(float64(q))
			j := int(pos)
			if pos < 0 || j >= on-1 {
				continue
			}
			frac := pos - float64(j)
			warped := obsLane[j]*(1-frac) + obsLane[j+1]*frac
			refLane[q] = (1-alpha)*refLane[q] + alpha*warped
		}
	}
}

// Reference returns a copy of channel i's evolved reference.
func (e *Engine) Reference(i int) *sigproc.Signal { return e.chans[i].ref.Clone() }

// Thresholds returns channel i's recalibrated thresholds.
func (e *Engine) Thresholds(i int) core.Thresholds { return e.chans[i].th }

// Snapshot returns every channel's evolved baseline (references cloned), in
// the form a candidate detector model is built from.
func (e *Engine) Snapshot() []ChannelState {
	out := make([]ChannelState, len(e.chans))
	for i, ch := range e.chans {
		out[i] = ChannelState{
			Name:       ch.name,
			Reference:  ch.ref.Clone(),
			Params:     ch.params,
			Thresholds: ch.th,
		}
	}
	return out
}

// Absorbed and Rejected count the engine's decisions so far.
func (e *Engine) Absorbed() int { return e.absorbed }

// Rejected counts the prints the guardrail refused.
func (e *Engine) Rejected() int { return e.rejected }
