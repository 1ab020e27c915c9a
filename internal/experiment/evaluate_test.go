package experiment

import (
	"testing"

	"nsync/internal/baseline"
	"nsync/internal/core"
	"nsync/internal/ids"
	"nsync/internal/sensor"
)

func TestOutcomeMetrics(t *testing.T) {
	var o Outcome
	o.record("Benign", false, false)
	o.record("Benign", false, true)
	o.record("Void", true, true)
	o.record("Void", true, false)
	if o.FPR() != 0.5 || o.TPR() != 0.5 {
		t.Errorf("FPR/TPR = %v/%v, want 0.5/0.5", o.FPR(), o.TPR())
	}
	if o.Accuracy() != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", o.Accuracy())
	}
	if o.String() != "0.50/0.50" {
		t.Errorf("String = %q", o.String())
	}
	if got := o.PerAttack["Void"]; got != [2]int{1, 2} {
		t.Errorf("PerAttack = %v", got)
	}
	if (Outcome{}).FPR() != 0 || (Outcome{}).TPR() != 0 {
		t.Error("empty outcome rates should be 0")
	}
}

func TestEvaluateNSYNCDWMSeparates(t *testing.T) {
	for name, ds := range tinyDatasets(t) {
		params := ds.Scale.DWM[name]
		out, err := EvaluateNSYNC(ds, sensor.ACC, ids.Raw, &core.DWMSynchronizer{Params: params}, ds.Scale.OCCMarginNSYNC)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s ACC raw NSYNC/DWM: overall %v cdisp %v hdist %v vdist %v (thresholds %+v)",
			name, out.Overall, out.CDisp, out.HDist, out.VDist, out.Thresholds)
		if fpr := out.Overall.FPR(); fpr > 0.25 {
			t.Errorf("%s: NSYNC/DWM FPR = %v, want <= 0.25", name, fpr)
		}
		if tpr := out.Overall.TPR(); tpr < 0.8 {
			t.Errorf("%s: NSYNC/DWM TPR = %v, want >= 0.8", name, tpr)
		}
	}
}

func TestEvaluateMooreSuffersFromTimeNoise(t *testing.T) {
	ds := tinyDatasets(t)["UM3"]
	moore := &baseline.Moore{Channel: sensor.ACC, Transform: ids.Raw, OCC: core.OCCConfig{R: ds.Scale.OCCMarginPrior}}
	out, err := Evaluate(moore, ds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("UM3 ACC raw Moore: %v (accuracy %.2f)", out, out.Accuracy())
	// Without any DSYNC, time noise makes benign and malicious runs look
	// alike: accuracy must be clearly below NSYNC's.
	if out.Accuracy() > 0.85 {
		t.Errorf("Moore accuracy = %v; expected time noise to hurt it", out.Accuracy())
	}
}

func TestEvaluateUntrainableIDS(t *testing.T) {
	ds := tinyDatasets(t)["UM3"]
	bad := &baseline.Moore{Channel: sensor.Channel(42), Transform: ids.Raw}
	if _, err := Evaluate(bad, ds); err == nil {
		t.Error("unknown channel: want error")
	}
}
