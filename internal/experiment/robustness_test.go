package experiment

import (
	"fmt"
	"testing"

	"nsync/internal/fault"
	"nsync/internal/ids"
	"nsync/internal/sensor"
)

// fastRobustness keeps the sweep small for tests: the two fault kinds the
// acceptance criteria exercise (a dead channel and a clipping ADC) at full
// severity.
func fastRobustness() RobustnessConfig {
	return RobustnessConfig{
		Kinds:      []fault.Kind{fault.StuckAt, fault.Saturation},
		Severities: []float64{1.0},
	}
}

func TestRobustnessSweep(t *testing.T) {
	dss := tinyDatasets(t)
	rows, err := Robustness(map[string]*Dataset{"UM3": dss["UM3"]}, fastRobustness())
	if err != nil {
		t.Fatal(err)
	}
	// 1 clean baseline + 2 kinds x 1 severity.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}

	clean := rows[0]
	if clean.Kind != 0 || clean.Label() != "none" {
		t.Fatalf("first row is not the clean baseline: %+v", clean)
	}
	// Benign path: no healthy channel may be quarantined, and fused
	// detection must not lose the Table I attacks the single channels catch.
	if clean.QuarantineRate != 0 {
		t.Errorf("clean baseline quarantined %.2f of runs", clean.QuarantineRate)
	}
	if clean.FusedK1.TPR() < clean.Single.TPR() {
		t.Errorf("clean fused TPR %.2f below single-ACC TPR %.2f", clean.FusedK1.TPR(), clean.Single.TPR())
	}

	for _, r := range rows[1:] {
		if r.Label() == "none" {
			t.Fatalf("fault row rendered as clean: %+v", r)
		}
		// A dead or clipped ACC must be quarantined on every run...
		if r.QuarantineRate != 1 {
			t.Errorf("%s: quarantine rate %.2f, want 1.0", r.Label(), r.QuarantineRate)
		}
		// ...so the fused FPR stays clean (no stuck alarm) while the
		// remaining healthy channels keep detecting the attacks.
		if r.FusedK1.FPR() > clean.FusedK1.FPR() {
			t.Errorf("%s: fused FPR %.2f worse than clean %.2f", r.Label(), r.FusedK1.FPR(), clean.FusedK1.FPR())
		}
		if r.FusedK1.TPR() == 0 {
			t.Errorf("%s: fused detection lost every attack", r.Label())
		}
	}

	// The dead channel alone, without gating, is the stuck-alarm case: it
	// flags every run — benign ones included.
	dead := rows[1]
	if dead.Kind != fault.StuckAt {
		t.Fatalf("row order changed: %+v", dead)
	}
	if dead.Single.FPR() != 1 {
		t.Errorf("ungated dead channel FPR = %.2f, want 1.0 (stuck alarm)", dead.Single.FPR())
	}
}

// TestRobustnessCleanSingleMatchesTable8 pins the sweep's benign path to
// the evaluation harness: on clean signals, the fused detector's ACC
// channel must reach Table VIII's UM3 raw-ACC verdicts run for run, per
// attack included.
func TestRobustnessCleanSingleMatchesTable8(t *testing.T) {
	ds := tinyDatasets(t)["UM3"]
	rows, err := Robustness(map[string]*Dataset{"UM3": ds}, RobustnessConfig{
		Kinds:      []fault.Kind{fault.StuckAt},
		Severities: []float64{1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Table8(map[string]*Dataset{"UM3": ds})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t8 {
		if r.Transform != ids.Raw || r.Channel != sensor.ACC {
			continue
		}
		got, want := fmt.Sprintf("%+v", rows[0].Single), fmt.Sprintf("%+v", r.Result.Overall)
		if got != want {
			t.Errorf("clean single-ACC outcome differs from Table VIII's UM3 raw ACC:\n got %s\nwant %s", got, want)
		}
		return
	}
	t.Fatal("Table VIII has no UM3 raw ACC row")
}

func TestRobustnessWorkerCountDeterminism(t *testing.T) {
	dss := tinyDatasets(t)
	defer SetWorkers(0)
	one := map[string]*Dataset{"UM3": dss["UM3"]}

	SetWorkers(1)
	serial, err := Robustness(one, fastRobustness())
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(8)
	parallel, err := Robustness(one, fastRobustness())
	if err != nil {
		t.Fatal(err)
	}
	got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial)
	if got != want {
		t.Errorf("robustness table differs between 8 workers and 1 worker:\n--- workers=8 ---\n%s\n--- workers=1 ---\n%s", got, want)
	}
}

func TestRobustnessConfigValidation(t *testing.T) {
	cfg := RobustnessConfig{
		FaultChannel:  sensor.EPT,
		FusedChannels: []sensor.Channel{sensor.ACC, sensor.MAG},
	}
	ds := &Dataset{Printer: "UM3", Scale: CI()}
	if _, err := robustnessDataset(ds, cfg.withDefaults()); err == nil {
		t.Error("fault channel outside fused set: want error")
	}
	def := RobustnessConfig{}.withDefaults()
	if def.FaultChannel != sensor.ACC || len(def.Kinds) != len(fault.AllKinds) {
		t.Errorf("defaults = %+v", def)
	}
	if len(def.Severities) != 2 || def.OnsetFrac != 0.35 {
		t.Errorf("defaults = %+v", def)
	}
}
