package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestChaosNilAndZeroNeverInject(t *testing.T) {
	var nilChaos *Chaos
	if err := nilChaos.Strike(context.Background()); err != nil {
		t.Fatalf("nil chaos struck: %v", err)
	}
	if n := nilChaos.Strikes(); n != 0 {
		t.Fatalf("nil chaos counted %d strikes", n)
	}
	quiet, err := NewChaos(ChaosConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := quiet.Strike(context.Background()); err != nil {
			t.Fatalf("zero-rate chaos struck: %v", err)
		}
	}
	if quiet.Strikes() != 100 {
		t.Errorf("strikes = %d, want 100", quiet.Strikes())
	}
}

func TestChaosErrorRateOneAlwaysTransient(t *testing.T) {
	c, err := NewChaos(ChaosConfig{Seed: 3, ErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		serr := c.Strike(context.Background())
		if serr == nil || !IsTransient(serr) {
			t.Fatalf("strike %d: err = %v, want a transient error", i, serr)
		}
	}
}

func TestChaosPanicRateOneAlwaysPanics(t *testing.T) {
	c, err := NewChaos(ChaosConfig{Seed: 3, PanicRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("rate-1 panic chaos did not panic")
		}
	}()
	_ = c.Strike(context.Background())
}

func TestChaosLatencyHonorsContext(t *testing.T) {
	c, err := NewChaos(ChaosConfig{Seed: 3, LatencyRate: 1, Latency: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if serr := c.Strike(ctx); !errors.Is(serr, context.Canceled) {
		t.Fatalf("strike under cancelled ctx = %v, want context.Canceled", serr)
	}
}

func TestChaosDeterministicPerSeed(t *testing.T) {
	decisions := func(seed int64) []bool {
		c, err := NewChaos(ChaosConfig{Seed: seed, ErrorRate: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = c.Strike(context.Background()) != nil
		}
		return out
	}
	a, b := decisions(11), decisions(11)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("strike %d: same seed decided differently", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Errorf("rate-0.5 chaos injected %d/%d — decisions look degenerate", hits, len(a))
	}
	c := decisions(12)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds made identical decisions on all 64 strikes")
	}
}

func TestChaosConfigValidate(t *testing.T) {
	bad := []ChaosConfig{
		{PanicRate: -0.1},
		{ErrorRate: 1.5},
		{LatencyRate: 2},
		{Latency: -time.Second},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad config", cfg)
		}
	}
	if _, err := NewChaos(ChaosConfig{PanicRate: 2}); err == nil {
		t.Error("NewChaos accepted a bad config")
	}
}

func TestParseChaos(t *testing.T) {
	cfg, err := ParseChaos("panic=0.05,error=0.1,latency=0.02,delay=5ms,seed=7", 999)
	if err != nil {
		t.Fatal(err)
	}
	want := ChaosConfig{Seed: 7, PanicRate: 0.05, ErrorRate: 0.1, LatencyRate: 0.02, Latency: 5 * time.Millisecond}
	if cfg != want {
		t.Fatalf("ParseChaos = %+v, want %+v", cfg, want)
	}
	cfg, err = ParseChaos("error=0.5", 999)
	if err != nil || cfg.Seed != 999 {
		t.Fatalf("default seed: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{"panic", "panic=x", "rate=0.1", "delay=fast", "seed=pi", "panic=1.5"} {
		if _, err := ParseChaos(bad, 0); err == nil {
			t.Errorf("ParseChaos(%q) accepted a bad spec", bad)
		}
	}
}
