package sensor

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"nsync/internal/gcode"
	"nsync/internal/printer"
	"nsync/internal/scratch"
	"nsync/internal/sigproc"
	"nsync/internal/slicer"
)

// testTrace simulates a short gear print once per test binary.
var testTraceCache *printer.Trace

func testTrace(t *testing.T) *printer.Trace {
	t.Helper()
	if testTraceCache != nil {
		return testTraceCache
	}
	cfg := slicer.DefaultConfig()
	cfg.TotalHeight = 0.2
	prog, err := slicer.Slice(slicer.Gear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := printer.Run(prog, printer.UM3(), printer.Options{
		Seed: 77, TraceRate: 1000, InitialHotend: 200, InitialBed: 58,
	})
	if err != nil {
		t.Fatal(err)
	}
	testTraceCache = tr
	return tr
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Rates = PaperRates().Scaled(20) // keep tests fast
	return cfg
}

func TestChannelString(t *testing.T) {
	names := map[Channel]string{ACC: "ACC", TMP: "TMP", MAG: "MAG", AUD: "AUD", EPT: "EPT", PWR: "PWR"}
	for ch, want := range names {
		if got := ch.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ch, got, want)
		}
	}
	if Channel(42).String() != "Channel(42)" {
		t.Error("unknown channel string wrong")
	}
}

func TestRates(t *testing.T) {
	r := PaperRates()
	if r.ACC != 4000 || r.AUD != 48000 || r.EPT != 96000 || r.PWR != 12000 || r.MAG != 100 {
		t.Errorf("paper rates wrong: %+v", r)
	}
	s := r.Scaled(10)
	if s.AUD != 4800 || s.MAG != 10 {
		t.Errorf("scaled rates wrong: %+v", s)
	}
	for _, ch := range AllChannels {
		if r.Of(ch) <= 0 {
			t.Errorf("Of(%v) = %v", ch, r.Of(ch))
		}
	}
	if (Rates{}).Of(Channel(42)) != 0 {
		t.Error("unknown channel rate should be 0")
	}
}

func TestChannelCounts(t *testing.T) {
	want := map[Channel]int{ACC: 6, TMP: 1, MAG: 3, AUD: 2, EPT: 1, PWR: 1}
	for ch, n := range want {
		if got := Channels(ch); got != n {
			t.Errorf("Channels(%v) = %d, want %d (Table II)", ch, got, n)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Rates.ACC = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero rate: want error")
	}
	bad = DefaultConfig()
	bad.GainSigma = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative gain sigma: want error")
	}
	bad = DefaultConfig()
	bad.MainsHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero mains: want error")
	}
}

func TestAcquireShapes(t *testing.T) {
	tr := testTrace(t)
	cfg := testConfig()
	for _, ch := range AllChannels {
		sig, err := Acquire(tr, ch, cfg, 1)
		if err != nil {
			t.Fatalf("%v: %v", ch, err)
		}
		if err := sig.Validate(); err != nil {
			t.Fatalf("%v: %v", ch, err)
		}
		if sig.Channels() != Channels(ch) {
			t.Errorf("%v: channels = %d, want %d", ch, sig.Channels(), Channels(ch))
		}
		wantRate := cfg.Rates.Of(ch)
		if sig.Rate != wantRate {
			t.Errorf("%v: rate = %v, want %v", ch, sig.Rate, wantRate)
		}
		// Frame drops shorten the signal slightly; it must stay close to
		// the trace duration.
		if d := sig.Duration(); d < tr.Duration()*0.95 || d > tr.Duration()*1.01 {
			t.Errorf("%v: duration %v vs trace %v", ch, d, tr.Duration())
		}
		for c := range sig.Data {
			for i, v := range sig.Data[c] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v: non-finite sample at [%d][%d]", ch, c, i)
				}
			}
		}
	}
}

func TestAcquireAll(t *testing.T) {
	tr := testTrace(t)
	sigs, err := AcquireAll(tr, testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 6 {
		t.Fatalf("channels = %d, want 6", len(sigs))
	}
}

func TestAcquireDeterministicPerSeed(t *testing.T) {
	tr := testTrace(t)
	cfg := testConfig()
	a1, err := Acquire(tr, AUD, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Acquire(tr, AUD, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Len() != a2.Len() {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a1.Data[0] {
		if a1.Data[0][i] != a2.Data[0][i] {
			t.Fatal("same seed produced different samples")
		}
	}
	a3, err := Acquire(tr, AUD, cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	same := a1.Len() == a3.Len()
	if same {
		diff := false
		for i := range a1.Data[0] {
			if a1.Data[0][i] != a3.Data[0][i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical signals")
	}
}

// corr0 is the lag-0 correlation over the common prefix of two
// single-channel signals.
func corr0(a, b *sigproc.Signal) float64 {
	n := min(a.Len(), b.Len())
	return sigproc.Correlation(a.Data[0][:n], b.Data[0][:n])
}

func TestStrongChannelsCorrelateAcrossRuns(t *testing.T) {
	// Two simulated runs of the same print with time noise DISABLED (the
	// printer package tests time noise; here we isolate sensor information
	// content): ACC from run 1 and run 2 must correlate strongly at lag 0,
	// while raw EPT must not — its mains phase is random per run, which is
	// exactly why the paper drops the raw EPT signal and keeps only its
	// spectrogram.
	cfg := slicer.DefaultConfig()
	cfg.TotalHeight = 0.2
	prog, err := slicer.Slice(slicer.Gear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := testConfig()
	scfg.FrameDropRate = 0 // keep sample-exact alignment
	acquire := func(seed int64, ch Channel) *sigproc.Signal {
		tr, err := printer.Run(prog, printer.UM3(), printer.Options{
			Seed: seed, TraceRate: 1000, InitialHotend: 200, InitialBed: 58,
			DisableNoise: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sig, err := Acquire(tr, ch, scfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	// A second, geometrically different print (grid infill) serves as the
	// "unrelated" signal: a channel is informative when it correlates with
	// the same print much better than with a different print. Raw EPT is
	// hum-only: its correlation reflects the random mains phase difference
	// regardless of what was printed.
	gridCfg := cfg
	gridCfg.Infill = slicer.InfillGridPattern
	gridProg, err := slicer.Slice(slicer.Gear(), gridCfg)
	if err != nil {
		t.Fatal(err)
	}
	acquireProg := func(p *gcode.Program, seed int64, ch Channel) *sigproc.Signal {
		tr, err := printer.Run(p, printer.UM3(), printer.Options{
			Seed: seed, TraceRate: 1000, InitialHotend: 200, InitialBed: 58,
			DisableNoise: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sig, err := Acquire(tr, ch, scfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	for _, ch := range []Channel{ACC, AUD} {
		same := math.Abs(corr0(acquire(100, ch), acquire(200, ch)))
		diff := math.Abs(corr0(acquire(100, ch), acquireProg(gridProg, 200, ch)))
		if same < 0.6 {
			t.Errorf("%v same-print correlation = %v, want > 0.6", ch, same)
		}
		if same-diff < 0.3 {
			t.Errorf("%v: same-print corr %v does not dominate different-print corr %v", ch, same, diff)
		}
	}
	eptSame := math.Abs(corr0(acquire(100, EPT), acquire(200, EPT)))
	eptDiff := math.Abs(corr0(acquire(100, EPT), acquireProg(gridProg, 200, EPT)))
	if math.Abs(eptSame-eptDiff) > 0.2 {
		t.Errorf("raw EPT distinguishes prints (same %v vs diff %v); it should be hum-dominated", eptSame, eptDiff)
	}
}

func TestEPTDominatedByMains(t *testing.T) {
	tr := testTrace(t)
	cfg := testConfig()
	cfg.FrameDropRate = 0
	sig, err := Acquire(tr, EPT, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The mains hum amplitude (10) dwarfs the drive component (~0.06):
	// check the RMS is close to a pure 10-amplitude sine.
	rms := sig.RMS()[0]
	if rms < 5 || rms > 12 {
		t.Errorf("EPT RMS = %v, want mains-dominated (~7)", rms)
	}
}

func TestFrameDropsShortenSignal(t *testing.T) {
	tr := testTrace(t)
	cfg := testConfig()
	cfg.FrameDropRate = 5 // aggressive, to make the effect visible
	cfg.FrameDropMax = 10
	with, err := Acquire(tr, ACC, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FrameDropRate = 0
	without, err := Acquire(tr, ACC, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if with.Len() >= without.Len() {
		t.Errorf("frame drops did not shorten: %d vs %d", with.Len(), without.Len())
	}
}

// frameDropsBySkipScan is the frame-drop model as first written: drop
// starts in a map, one skip counter scanned over every sample, and every
// kept sample appended to a second copy of its lane.
func frameDropsBySkipScan(sig *sigproc.Signal, cfg Config, rng *rand.Rand) *sigproc.Signal {
	if cfg.FrameDropRate <= 0 || cfg.FrameDropMax < 1 || sig.Len() == 0 {
		return sig
	}
	drops := poisson(rng, cfg.FrameDropRate*sig.Duration())
	if drops == 0 {
		return sig
	}
	n := sig.Len()
	dropAt := make(map[int]int, drops)
	for k := 0; k < drops; k++ {
		start := rng.Intn(n)
		dropAt[start] = 1 + rng.Intn(cfg.FrameDropMax)
	}
	out := &sigproc.Signal{Rate: sig.Rate, Data: make([][]float64, sig.Channels())}
	skip := 0
	for i := 0; i < n; i++ {
		if l, ok := dropAt[i]; ok && l > skip {
			skip = l
		}
		if skip > 0 {
			skip--
			continue
		}
		for c := range sig.Data {
			out.Data[c] = append(out.Data[c], sig.Data[c][i])
		}
	}
	return out
}

func rampSignal(channels, n int) *sigproc.Signal {
	sig := sigproc.New(100, channels, n)
	for c := range sig.Data {
		for i := range sig.Data[c] {
			sig.Data[c][i] = float64(c*n + i)
		}
	}
	return sig
}

// TestFrameDropsMatchSkipScan checks the in-place compaction against the
// skip scan on short signals with dense, overlapping and repeated drops.
func TestFrameDropsMatchSkipScan(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		cfg := Config{FrameDropRate: float64(seed%7) * 3, FrameDropMax: 1 + int(seed%5)*3}
		n := 1 + int(seed*37%400)
		want := frameDropsBySkipScan(rampSignal(2, n), cfg, rand.New(rand.NewSource(seed)))
		got := applyFrameDrops(rampSignal(2, n), cfg, rand.New(rand.NewSource(seed)))
		for c, w := range want.Data {
			if g := got.Data[c]; len(g) != len(w) || len(g) > 0 && !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d (n %d, %+v) lane %d: got %v, want %v", seed, n, cfg, c, g, w)
			}
		}
	}
}

// TestFrameDropsAllocateNoLane fails when dropping frames allocates a
// buffer the size of a lane: lanes are compacted in place.
func TestFrameDropsAllocateNoLane(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	const n = 100000
	sig := rampSignal(2, n) // 1000 s at 100 Hz
	cfg := Config{FrameDropRate: 0.1, FrameDropMax: 4}
	rng := rand.New(rand.NewSource(5))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sig = applyFrameDrops(sig, cfg, rng)
	runtime.ReadMemStats(&after)
	if sig.Len() == n {
		t.Fatal("no frame dropped")
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 8*n {
		t.Errorf("dropping frames allocated %d bytes, a lane is %d", b, 8*n)
	}
}

func TestGainDriftVariesAcrossRuns(t *testing.T) {
	tr := testTrace(t)
	cfg := testConfig()
	cfg.FrameDropRate = 0
	cfg.NoiseLevel = 0
	cfg.GainSigma = 0.3
	s1, err := Acquire(tr, PWR, cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Acquire(tr, PWR, cfg, 22)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := s1.RMS()[0], s2.RMS()[0]
	if math.Abs(r1-r2)/math.Max(r1, r2) < 0.01 {
		t.Errorf("gain drift absent: RMS %v vs %v", r1, r2)
	}
}

func TestAcquireErrors(t *testing.T) {
	if _, err := Acquire(&printer.Trace{Rate: 100}, ACC, testConfig(), 1); err == nil {
		t.Error("empty trace: want error")
	}
	tr := testTrace(t)
	bad := testConfig()
	bad.Rates.MAG = 0
	if _, err := Acquire(tr, MAG, bad, 1); err == nil {
		t.Error("invalid config: want error")
	}
	if _, err := Acquire(tr, Channel(42), testConfig(), 1); err == nil {
		t.Error("unknown channel: want error")
	}
}

func TestTMPWeaklyCorrelatedWithMotion(t *testing.T) {
	tr := testTrace(t)
	cfg := testConfig()
	sig, err := Acquire(tr, TMP, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	// TMP should be nearly flat: std much smaller than mean.
	mean := sig.Mean()[0]
	std := sig.Std()[0]
	if std > math.Abs(mean)*0.2 {
		t.Errorf("TMP std %v too large relative to mean %v", std, mean)
	}
}
