package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sync"
	"testing"

	"nsync/internal/ids"
	"nsync/internal/printer"
	"nsync/internal/sensor"
)

// tinyScale is a reduced roster for unit tests: a two-layer part, rates
// divided by 20, and a handful of runs. Benchmarks use the full CI scale.
func tinyScale() Scale {
	s := CI()
	s.Name = "tiny"
	s.PartHeight = 0.4
	s.Sensor.Rates = sensor.PaperRates().Scaled(20)
	s.Sensor.Rates.MAG = 100
	s.Counts = Counts{Train: 3, TestBenign: 4, PerAttack: 1}
	return s
}

var (
	tinyOnce sync.Once
	tinyDS   map[string]*Dataset
	tinyErr  error
)

// tinyDatasets generates (once per test binary) the tiny roster for both
// printers. Tests that need it are simulation-heavy, so they are skipped
// in -short mode (which keeps `go test -race -short ./...` quick).
func tinyDatasets(t *testing.T) map[string]*Dataset {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	tinyOnce.Do(func() {
		tinyDS = make(map[string]*Dataset, 2)
		for _, prof := range Profiles() {
			ds, err := Generate(tinyScale(), prof, 1000)
			if err != nil {
				tinyErr = err
				return
			}
			tinyDS[prof.Name] = ds
		}
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyDS
}

func TestScaleValidate(t *testing.T) {
	for _, s := range []Scale{CI(), Paper(), tinyScale()} {
		if err := s.Validate(); err != nil {
			t.Errorf("scale %q invalid: %v", s.Name, err)
		}
	}
	bad := CI()
	bad.Counts.Train = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero train count: want error")
	}
	bad = CI()
	bad.DWM = nil
	if err := bad.Validate(); err == nil {
		t.Error("no DWM params: want error")
	}
}

func TestProgramsRoster(t *testing.T) {
	benign, malicious, err := tinyScale().Programs()
	if err != nil {
		t.Fatal(err)
	}
	if len(benign.Commands) == 0 {
		t.Fatal("empty benign program")
	}
	if len(malicious) != len(AttackNames) {
		t.Fatalf("attacks = %d, want %d", len(malicious), len(AttackNames))
	}
	benignStr := benign.SerializeString()
	for _, name := range AttackNames {
		prog, ok := malicious[name]
		if !ok {
			t.Fatalf("missing attack %q", name)
		}
		if prog.SerializeString() == benignStr {
			t.Errorf("attack %q produced G-code identical to benign", name)
		}
	}
}

func TestGenerateRoster(t *testing.T) {
	ds := tinyDatasets(t)["UM3"]
	s := tinyScale()
	if len(ds.Train) != s.Counts.Train {
		t.Errorf("train runs = %d, want %d", len(ds.Train), s.Counts.Train)
	}
	if len(ds.TestBenign) != s.Counts.TestBenign {
		t.Errorf("benign test runs = %d, want %d", len(ds.TestBenign), s.Counts.TestBenign)
	}
	if len(ds.TestMalicious) != s.Counts.PerAttack*len(AttackNames) {
		t.Errorf("malicious runs = %d, want %d", len(ds.TestMalicious), s.Counts.PerAttack*len(AttackNames))
	}
	// Every run carries all six channels and layer times.
	check := ds.Ref
	if len(check.Signals) != 6 {
		t.Errorf("ref signals = %d, want 6", len(check.Signals))
	}
	if len(check.LayerTimes) != 2 {
		t.Errorf("ref layers = %d, want 2", len(check.LayerTimes))
	}
	if check.Duration <= 10 {
		t.Errorf("ref duration = %v, want a real print", check.Duration)
	}
	// Malicious labels are set.
	seen := map[string]bool{}
	for _, r := range ds.TestMalicious {
		if !r.Malicious {
			t.Fatalf("run %s not marked malicious", r.Label)
		}
		seen[r.Label] = true
	}
	for _, name := range AttackNames {
		if !seen[name] {
			t.Errorf("no runs for attack %q", name)
		}
	}
	// Layer0.3 runs have fewer layers than benign.
	for _, r := range ds.TestMalicious {
		if r.Label == "Layer0.3" && len(r.LayerTimes) >= len(ds.Ref.LayerTimes) {
			t.Errorf("Layer0.3 run has %d layers, benign has %d", len(r.LayerTimes), len(ds.Ref.LayerTimes))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	s := tinyScale()
	s.Counts = Counts{Train: 1, TestBenign: 1, PerAttack: 1}
	prof := printer.UM3()
	d1, err := Generate(s, prof, 55)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(s, prof, 55)
	if err != nil {
		t.Fatal(err)
	}
	a := d1.Ref.Signals[sensor.AUD]
	b := d2.Ref.Signals[sensor.AUD]
	if a.Len() != b.Len() {
		t.Fatal("same seed gave different lengths")
	}
	for i := range a.Data[0] {
		if a.Data[0][i] != b.Data[0][i] {
			t.Fatal("same seed gave different samples")
		}
	}
}

func TestGenerateCachedReuses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short mode")
	}
	s := tinyScale()
	s.Counts = Counts{Train: 1, TestBenign: 1, PerAttack: 1}
	prof := printer.UM3()
	d1, err := GenerateCached(s, prof, 77)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := GenerateCached(s, prof, 77)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("cache did not reuse the dataset")
	}
}

func TestGenerateUnknownPrinter(t *testing.T) {
	s := tinyScale()
	prof := printer.UM3()
	prof.Name = "XYZ"
	if _, err := Generate(s, prof, 1); err == nil {
		t.Error("printer without DWM params: want error")
	}
}

// rosterDigest hashes every sample bit of a dataset's signals, run by run in
// roster order, with each run's label, seed, duration and layer starts.
func rosterDigest(ds *Dataset) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	runs := append([]*ids.Run{ds.Ref}, ds.Train...)
	runs = append(runs, ds.TestBenign...)
	for _, r := range append(runs, ds.TestMalicious...) {
		h.Write([]byte(r.Label))
		put(uint64(r.Seed))
		put(math.Float64bits(r.Duration))
		for _, l := range r.LayerTimes {
			put(math.Float64bits(l))
		}
		for _, ch := range sensor.AllChannels {
			sig := r.Signals[ch]
			put(math.Float64bits(sig.Rate))
			for _, lane := range sig.Data {
				put(uint64(len(lane)))
				for _, x := range lane {
					put(math.Float64bits(x))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BenchmarkGenerate simulates the bench's roster (the CI scale cut to a
// reference, 6 training prints, 5 benign test prints and one print per
// attack) on each printer at seed 1000. It reports GC cycles per roster and
// logs the roster's digest, so running it in two trees sizes a simulator
// change and shows whether any sample bit moved.
func BenchmarkGenerate(b *testing.B) {
	s := CI()
	s.Counts = Counts{Train: 6, TestBenign: 5, PerAttack: 1}
	for _, prof := range Profiles() {
		b.Run(prof.Name, func(b *testing.B) {
			b.ReportAllocs()
			var ds *Dataset
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				var err error
				if ds, err = Generate(s, prof, 1000); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
			b.Logf("roster digest %s", rosterDigest(ds))
		})
	}
}
