package sensor

// Slow sensor drift across a *sequence* of prints. internal/fault models the
// acute end of acquisition-chain failure (a connector coming loose mid-print);
// this file models the chronic end: nozzle wear, belt tension loss, amplifier
// aging and thermal creep shift the side-channel statistics a little more with
// every print, until a detector trained against a frozen reference alarms on
// benign work. Drift is parameterized per channel, evolves with the print's
// index in the sequence, and is fully seeded: the same (seed, specs, channel,
// print index) always produces the same drifted signal, so accuracy-decay
// sweeps are reproducible.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"nsync/internal/fault"
	"nsync/internal/sigproc"
)

// DriftKind identifies one slow-drift process of an aging acquisition chain.
type DriftKind int

// The supported drift processes.
const (
	// DriftGain models sensor gain ramping as mounts loosen and amplifier
	// bias shifts: print k is scaled by exp(Rate*k), so the log-gain grows
	// linearly across the sequence.
	DriftGain DriftKind = iota + 1
	// DriftNoise models the noise floor creeping up (aging electronics,
	// accumulating vibration sources): print k gains additive white noise
	// with per-lane sigma Rate*k times the lane's own standard deviation.
	DriftNoise
	// DriftClock models the sample clock skewing (crystal aging, thermal
	// drift): print k is resampled as if the clock ran fast by Rate*k,
	// capped at a 2% rate error. The resampling reuses the fault package's
	// ClockDrift machinery.
	DriftClock
	// DriftOffset models the DC baseline wandering (electrode polarization,
	// thermal EMF): each lane's offset takes one seeded random-walk step of
	// sigma Rate times the lane standard deviation per print.
	DriftOffset
)

// AllDriftKinds lists every drift process, in declaration order.
var AllDriftKinds = []DriftKind{DriftGain, DriftNoise, DriftClock, DriftOffset}

// String implements fmt.Stringer.
func (k DriftKind) String() string {
	switch k {
	case DriftGain:
		return "gain"
	case DriftNoise:
		return "noise"
	case DriftClock:
		return "clock"
	case DriftOffset:
		return "offset"
	default:
		return fmt.Sprintf("DriftKind(%d)", int(k))
	}
}

// DriftSpec describes one drift process: what drifts, how fast per print,
// and on which channel. Specs are plain data so they can sit in experiment
// grids and flags.
type DriftSpec struct {
	// Kind is the drift process.
	Kind DriftKind
	// Rate is the per-print growth of the process magnitude (see the Kind
	// docs for each kind's unit). Rate 0 is the identity.
	Rate float64
	// Channel restricts the spec to one side channel; 0 applies it to every
	// channel.
	Channel Channel
}

// Validate reports malformed specs.
func (sp DriftSpec) Validate() error {
	switch sp.Kind {
	case DriftGain, DriftNoise, DriftClock, DriftOffset:
	default:
		return fmt.Errorf("sensor: unknown drift kind %v", sp.Kind)
	}
	if sp.Rate < 0 || math.IsNaN(sp.Rate) || math.IsInf(sp.Rate, 0) {
		return fmt.Errorf("sensor: drift rate %v must be finite and non-negative", sp.Rate)
	}
	return nil
}

// String renders the spec compactly ("gain/0.030").
func (sp DriftSpec) String() string {
	if sp.Channel != 0 {
		return fmt.Sprintf("%v/%.3f@%v", sp.Kind, sp.Rate, sp.Channel)
	}
	return fmt.Sprintf("%v/%.3f", sp.Kind, sp.Rate)
}

// DriftInjector applies a set of drift processes to signals as a function of
// their print index, deterministically: the per-spec randomness (noise
// samples, walk steps) derives from the injector seed, the spec index, the
// channel, and the print index only, so any print of the sequence can be
// generated independently and in any order.
type DriftInjector struct {
	seed  int64
	specs []DriftSpec
}

// NewDriftInjector builds an injector for the given specs.
func NewDriftInjector(seed int64, specs ...DriftSpec) (*DriftInjector, error) {
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("sensor: drift spec %d: %w", i, err)
		}
	}
	return &DriftInjector{seed: seed, specs: append([]DriftSpec(nil), specs...)}, nil
}

// Specs returns a copy of the injector's drift specs.
func (d *DriftInjector) Specs() []DriftSpec { return append([]DriftSpec(nil), d.specs...) }

// Apply returns a copy of s as print number print (1-based) of a drifting
// sequence would have captured it on side channel ch. Print 0 is the
// sequence start: gain, noise, and clock drift are the identity there, and
// the offset walk has taken no steps. The input is never modified.
func (d *DriftInjector) Apply(s *sigproc.Signal, ch Channel, print int) (*sigproc.Signal, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sensor: drift: %w", err)
	}
	if print < 0 {
		return nil, fmt.Errorf("sensor: drift print index %d is negative", print)
	}
	out := s.Clone()
	for i, sp := range d.specs {
		if sp.Channel != 0 && sp.Channel != ch {
			continue
		}
		if err := applyDrift(out, sp, d.rng(i, ch), print); err != nil {
			return nil, fmt.Errorf("sensor: drift spec %d (%v): %w", i, sp, err)
		}
	}
	return out, nil
}

// rng derives the base random stream for one (spec, channel) pair. Kinds
// that need per-print randomness fold the print index in on top.
func (d *DriftInjector) rng(spec int, ch Channel) *rand.Rand {
	s := uint64(d.seed) ^ uint64(spec+1)*0x9E3779B97F4A7C15 ^ uint64(int64(ch))*0x1E3779B97F4A7C15
	return rand.New(rand.NewSource(int64(s)))
}

func applyDrift(sig *sigproc.Signal, sp DriftSpec, rng *rand.Rand, print int) error {
	if print == 0 || sp.Rate == 0 || sig.Len() == 0 {
		return nil
	}
	switch sp.Kind {
	case DriftGain:
		gain := math.Exp(sp.Rate * float64(print))
		for _, lane := range sig.Data {
			for i := range lane {
				lane[i] *= gain
			}
		}
	case DriftNoise:
		// The per-print noise sub-stream: reseed from the base stream so the
		// noise of print k does not depend on whether prints 1..k-1 were
		// generated first.
		sub := rand.New(rand.NewSource(rng.Int63() ^ int64(uint64(print+1)*0xBF58476D1CE4E5B9)))
		for _, lane := range sig.Data {
			sigma := sp.Rate * float64(print) * laneStdOf(lane)
			if sigma == 0 {
				continue
			}
			for i := range lane {
				lane[i] += sigma * sub.NormFloat64()
			}
		}
	case DriftClock:
		// A clock running fast by Rate*print, capped at the 2% rate error
		// fault.ClockDrift severity 1 encodes.
		severity := sp.Rate * float64(print) / 0.02
		if severity > 1 {
			severity = 1
		}
		inj, err := fault.NewInjector(0, fault.Spec{Kind: fault.ClockDrift, Severity: severity})
		if err != nil {
			return err
		}
		return inj.ApplyInPlace(sig)
	case DriftOffset:
		// Recompute the walk from scratch: print k's offset is the sum of k
		// seeded steps, identical no matter which prints were generated
		// before. Steps are drawn print-major so print k extends print k-1's
		// walk rather than reshuffling it.
		walk := make([]float64, len(sig.Data))
		for j := 0; j < print; j++ {
			for c := range walk {
				walk[c] += rng.NormFloat64()
			}
		}
		for c, lane := range sig.Data {
			off := sp.Rate * walk[c] * laneStdOf(lane)
			for i := range lane {
				lane[i] += off
			}
		}
	}
	return nil
}

// laneStdOf is the population standard deviation of v (0 for len < 2).
func laneStdOf(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	m := sum / float64(len(v))
	var ss float64
	for _, x := range v {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(v)))
}

// DriftPlan is the parsed form of the -drift flag: the drift specs plus the
// seed and the starting print index of the replayed sequence.
type DriftPlan struct {
	Specs []DriftSpec
	Seed  int64
	// Print is the sequence index of the first replayed run; consecutive
	// runs of one invocation take consecutive indexes.
	Print int
}

// Injector builds the plan's drift injector.
func (p DriftPlan) Injector() (*DriftInjector, error) {
	return NewDriftInjector(p.Seed, p.Specs...)
}

// ParseDrift parses the -drift flag syntax, a mirror of -chaos:
// comma-separated key=value pairs with keys gain, noise, clock, offset
// (per-print rates), seed (int64, defaulting to defaultSeed), print (the
// 1-based sequence index of the first run, default 1), and channel (restrict
// every spec to one side channel, e.g. channel=ACC).
// Example: "gain=0.03,noise=0.02,clock=0.001,offset=0.05,print=4,seed=7".
func ParseDrift(spec string, defaultSeed int64) (DriftPlan, error) {
	plan := DriftPlan{Seed: defaultSeed, Print: 1}
	var restrict Channel
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return DriftPlan{}, fmt.Errorf("sensor: drift spec %q: want key=value", part)
		}
		switch key {
		case "gain", "noise", "clock", "offset":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return DriftPlan{}, fmt.Errorf("sensor: drift %s rate %q: %v", key, val, err)
			}
			kind := map[string]DriftKind{
				"gain": DriftGain, "noise": DriftNoise,
				"clock": DriftClock, "offset": DriftOffset,
			}[key]
			plan.Specs = append(plan.Specs, DriftSpec{Kind: kind, Rate: rate})
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return DriftPlan{}, fmt.Errorf("sensor: drift seed %q: %v", val, err)
			}
			plan.Seed = s
		case "print":
			p, err := strconv.Atoi(val)
			if err != nil || p < 0 {
				return DriftPlan{}, fmt.Errorf("sensor: drift print index %q: want a non-negative integer", val)
			}
			plan.Print = p
		case "channel":
			found := false
			for _, ch := range AllChannels {
				if strings.EqualFold(ch.String(), val) {
					restrict = ch
					found = true
				}
			}
			if !found {
				return DriftPlan{}, fmt.Errorf("sensor: drift channel %q: unknown side channel", val)
			}
		default:
			return DriftPlan{}, fmt.Errorf("sensor: unknown drift key %q (want gain, noise, clock, offset, seed, print, channel)", key)
		}
	}
	if restrict != 0 {
		for i := range plan.Specs {
			plan.Specs[i].Channel = restrict
		}
	}
	for i, sp := range plan.Specs {
		if err := sp.Validate(); err != nil {
			return DriftPlan{}, fmt.Errorf("sensor: drift spec %d: %w", i, err)
		}
	}
	return plan, nil
}
