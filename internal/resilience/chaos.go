package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nsync/internal/obs"
)

// Injection counters (see DESIGN.md §11): how much havoc a chaos run
// actually wreaked, next to the engine.retries / engine.panics_recovered
// counters that show the pipeline absorbing it.
var (
	chaosPanics = obs.GetCounter("chaos.injected_panics")
	chaosErrors = obs.GetCounter("chaos.injected_errors")
	chaosDelays = obs.GetCounter("chaos.injected_delays")
)

// ChaosConfig parameterizes a Chaos injector. All rates are probabilities
// per Strike call in [0, 1].
type ChaosConfig struct {
	// Seed drives the per-call randomness; the n-th Strike of a given seed
	// always makes the same decision.
	Seed int64
	// PanicRate is the probability that a strike panics.
	PanicRate float64
	// ErrorRate is the probability that a strike returns a transient error.
	ErrorRate float64
	// LatencyRate is the probability that a strike sleeps Latency first.
	LatencyRate float64
	// Latency is the injected delay (default 10 ms).
	Latency time.Duration
}

// Validate reports malformed configs.
func (c ChaosConfig) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"panic", c.PanicRate}, {"error", c.ErrorRate}, {"latency", c.LatencyRate}} {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("resilience: chaos %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.Latency < 0 {
		return fmt.Errorf("resilience: negative chaos latency %v", c.Latency)
	}
	return nil
}

// Chaos injects pipeline failures — panics, transient errors, latency — at
// configured rates. It is the pipeline analogue of internal/fault: fault
// corrupts the signals a detector sees, Chaos breaks the machinery that
// evaluates them, and the retry/checkpoint layer must absorb both. Safe for
// concurrent use; a nil *Chaos never injects.
type Chaos struct {
	cfg   ChaosConfig
	calls atomic.Int64
}

// NewChaos builds an injector.
func NewChaos(cfg ChaosConfig) (*Chaos, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Latency == 0 {
		cfg.Latency = 10 * time.Millisecond
	}
	return &Chaos{cfg: cfg}, nil
}

// Strike makes one injection decision: it may sleep (latency), panic, or
// return a transient error, in that order of evaluation with independent
// draws. The decision depends only on the seed and the strike ordinal, so a
// fixed worker schedule replays identically. A nil receiver is a no-op,
// letting call sites strike unconditionally.
func (c *Chaos) Strike(ctx context.Context) error {
	if c == nil {
		return nil
	}
	n := c.calls.Add(1)
	// Splitmix-style mix of seed and ordinal so consecutive ordinals do not
	// produce correlated rand streams.
	const golden = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64
	r := rand.New(rand.NewSource(c.cfg.Seed ^ (n * golden)))
	if c.cfg.LatencyRate > 0 && r.Float64() < c.cfg.LatencyRate {
		chaosDelays.Inc()
		if err := sleepCtx(ctx, c.cfg.Latency); err != nil {
			return err
		}
	}
	if c.cfg.PanicRate > 0 && r.Float64() < c.cfg.PanicRate {
		chaosPanics.Inc()
		panic(fmt.Sprintf("resilience: chaos-injected panic (strike %d)", n))
	}
	if c.cfg.ErrorRate > 0 && r.Float64() < c.cfg.ErrorRate {
		chaosErrors.Inc()
		return Transient(fmt.Errorf("resilience: chaos-injected transient error (strike %d)", n))
	}
	return nil
}

// Strikes returns how many injection decisions have been made.
func (c *Chaos) Strikes() int64 {
	if c == nil {
		return 0
	}
	return c.calls.Load()
}

// ParseChaos parses the -chaos flag syntax: comma-separated key=value
// pairs with keys panic, error, latency (rates in [0, 1]), delay (a
// time.Duration), and seed (int64, defaulting to defaultSeed).
// Example: "panic=0.05,error=0.1,latency=0.02,delay=5ms,seed=7".
func ParseChaos(spec string, defaultSeed int64) (ChaosConfig, error) {
	cfg := ChaosConfig{Seed: defaultSeed}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return ChaosConfig{}, fmt.Errorf("resilience: chaos spec %q: want key=value", part)
		}
		switch key {
		case "panic", "error", "latency":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return ChaosConfig{}, fmt.Errorf("resilience: chaos %s rate %q: %v", key, val, err)
			}
			switch key {
			case "panic":
				cfg.PanicRate = rate
			case "error":
				cfg.ErrorRate = rate
			case "latency":
				cfg.LatencyRate = rate
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return ChaosConfig{}, fmt.Errorf("resilience: chaos delay %q: %v", val, err)
			}
			cfg.Latency = d
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return ChaosConfig{}, fmt.Errorf("resilience: chaos seed %q: %v", val, err)
			}
			cfg.Seed = s
		default:
			return ChaosConfig{}, fmt.Errorf("resilience: unknown chaos key %q (want panic, error, latency, delay, seed)", key)
		}
	}
	return cfg, cfg.Validate()
}
