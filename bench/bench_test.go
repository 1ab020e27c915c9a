package main

import (
	"testing"
	"time"

	"nsync/internal/experiment"
)

// tinyScale is a roster small enough for tests: two-layer prints, three
// training prints (what the eval subset takes), one benign print and one
// print per attack.
func tinyScale() experiment.Scale {
	s := experiment.CI()
	s.PartHeight = 0.4
	s.Counts = experiment.Counts{Train: 3, TestBenign: 1, PerAttack: 1}
	return s
}

func tinyOptions(t *testing.T, trace bool) options {
	return options{
		seed: 7, seconds: time.Second, trace: trace, scale: tinyScale(),
		setups: 1, workDir: t.TempDir(), sessionsPerConn: 1,
	}
}

// TestSmoke runs every workload untraced and traced on the tiny roster: all
// outputs must check out and every metric must be reported, end-to-end
// ones non-zero. The traced runs must show the layer contrasts the
// workloads exist for: only fleet_durable journals, only eval_table8 pays
// for STFT.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, meta, err := measure(w, tinyOptions(t, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d: %v",
						trace, res.Correct, res.Attempted, res.Failed, meta["first_failure"])
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Fatalf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, s.name, m, s.unit)
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
					}
				}
				if !trace {
					continue
				}
				if got := res.Metrics["journal.appends_per_session"].Value > 0; got != w.journal {
					t.Errorf("journal.appends_per_session = %v on %s", res.Metrics["journal.appends_per_session"].Value, w.name)
				}
				if got := res.Metrics["stft.transform_share"].Value > 0; got != w.eval {
					t.Errorf("stft.transform_share = %v on %s", res.Metrics["stft.transform_share"].Value, w.name)
				}
				if w.eval {
					if c := res.Metrics["experiment.span_coverage"].Value; c < 0.9 || c > 1 {
						t.Errorf("experiment.span_coverage = %v, want 0.9..1", c)
					}
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkFile keeps the reported metric names, units and
// directions, and the workload names, equal to BENCHMARK.json.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	f, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, names[i], w.name)
		}
	}
	var e2e, layer []metricSpec
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit, m.Better})
	}
	for _, c := range []struct {
		kind       string
		file, code []metricSpec
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", c.kind, len(c.file), len(c.code))
			continue
		}
		for i := range c.code {
			if c.file[i] != c.code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark reports %+v", c.kind, i, c.file[i], c.code[i])
			}
		}
	}
}

// TestTracingKeepsJournalSnapshots serves the same sessions with and
// without the tracing wrappers: the server must journal exactly as many
// snapshots either way, so the wrapped sink takes the same paths.
func TestTracingKeepsJournalSnapshots(t *testing.T) {
	w, err := findWorkload("fleet_durable")
	if err != nil {
		t.Fatal(err)
	}
	fx, err := setup(w, tinyScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	o := fleetOptions{seed: 7, workDir: t.TempDir(), sessionsPerConn: 2}
	plain, err := runFleet(w, fx, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runFleet(w, fx, o, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if plain.snapshots == 0 || plain.snapshots != traced.snapshots {
		t.Fatalf("journal snapshots: %d untraced, %d traced", plain.snapshots, traced.snapshots)
	}
	captures := 0
	for _, s := range traced.probe.released() {
		captures += s.captures
	}
	if captures != traced.snapshots {
		t.Fatalf("traced sinks captured state %d times for %d snapshots", captures, traced.snapshots)
	}
}

// TestPinnedDigests checks that the committed eval_table8 digests parse and
// cover the listed seeds, and that an unlisted seed has none.
func TestPinnedDigests(t *testing.T) {
	for _, seed := range []int64{1000, 4242} {
		if d, ok, err := pinnedDigest(seed); err != nil || !ok || len(d) != 16 {
			t.Errorf("seed %d: digest %q listed=%v err=%v", seed, d, ok, err)
		}
	}
	if _, ok, err := pinnedDigest(7); ok || err != nil {
		t.Errorf("seed 7: listed=%v err=%v, want unlisted", ok, err)
	}
}
