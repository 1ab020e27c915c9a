package sensor

import (
	"math"
	"reflect"
	"testing"

	"nsync/internal/sigproc"
)

func driftTestSignal() *sigproc.Signal {
	sig := sigproc.New(100, 2, 400)
	for c := range sig.Data {
		for i := range sig.Data[c] {
			sig.Data[c][i] = math.Sin(2*math.Pi*float64(i)/50) * float64(c+1)
		}
	}
	return sig
}

func TestDriftDeterministicAndOrderIndependent(t *testing.T) {
	sig := driftTestSignal()
	specs := []DriftSpec{
		{Kind: DriftGain, Rate: 0.02},
		{Kind: DriftNoise, Rate: 0.03},
		{Kind: DriftClock, Rate: 0.001},
		{Kind: DriftOffset, Rate: 0.05},
	}
	a, err := NewDriftInjector(7, specs...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDriftInjector(7, specs...)
	if err != nil {
		t.Fatal(err)
	}
	// Generate prints out of order on b; every print must match a's.
	want := make(map[int]*sigproc.Signal)
	for k := 1; k <= 5; k++ {
		out, err := a.Apply(sig, ACC, k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = out
	}
	for _, k := range []int{5, 2, 4, 1, 3} {
		got, err := b.Apply(sig, ACC, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Data, want[k].Data) {
			t.Fatalf("print %d differs when generated out of order", k)
		}
	}
}

func TestDriftPrintZeroIsIdentity(t *testing.T) {
	sig := driftTestSignal()
	inj, err := NewDriftInjector(3,
		DriftSpec{Kind: DriftGain, Rate: 0.1},
		DriftSpec{Kind: DriftNoise, Rate: 0.1},
		DriftSpec{Kind: DriftClock, Rate: 0.01},
		DriftSpec{Kind: DriftOffset, Rate: 0.1},
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := inj.Apply(sig, ACC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Data, sig.Data) {
		t.Fatal("print 0 should be the undrifted signal")
	}
	if &out.Data[0][0] == &sig.Data[0][0] {
		t.Fatal("Apply must not alias the input")
	}
}

func TestDriftMagnitudeGrowsWithPrintIndex(t *testing.T) {
	sig := driftTestSignal()
	gain, err := NewDriftInjector(1, DriftSpec{Kind: DriftGain, Rate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	prev := sig.RMS()[0]
	for k := 1; k <= 4; k++ {
		out, err := gain.Apply(sig, ACC, k)
		if err != nil {
			t.Fatal(err)
		}
		rms := out.RMS()[0]
		if rms <= prev {
			t.Fatalf("gain drift: RMS at print %d (%.4f) not above print %d", k, rms, k-1)
		}
		prev = rms
	}

	noise, err := NewDriftInjector(1, DriftSpec{Kind: DriftNoise, Rate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	resid := func(k int) float64 {
		out, err := noise.Apply(sig, ACC, k)
		if err != nil {
			t.Fatal(err)
		}
		var ss float64
		for i := range out.Data[0] {
			d := out.Data[0][i] - sig.Data[0][i]
			ss += d * d
		}
		return math.Sqrt(ss / float64(len(out.Data[0])))
	}
	if r1, r8 := resid(1), resid(8); r8 <= r1*2 {
		t.Fatalf("noise creep: residual at print 8 (%.4f) should dwarf print 1 (%.4f)", r8, r1)
	}
}

func TestDriftChannelRestriction(t *testing.T) {
	sig := driftTestSignal()
	inj, err := NewDriftInjector(1, DriftSpec{Kind: DriftGain, Rate: 0.1, Channel: MAG})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := inj.Apply(sig, ACC, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(acc.Data, sig.Data) {
		t.Fatal("MAG-only drift must not touch ACC")
	}
	mag, err := inj.Apply(sig, MAG, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(mag.Data, sig.Data) {
		t.Fatal("MAG-only drift must change MAG")
	}
}

func TestParseDrift(t *testing.T) {
	plan, err := ParseDrift("gain=0.03,noise=0.02,clock=0.001,offset=0.05,print=4,seed=7,channel=ACC", 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || plan.Print != 4 || len(plan.Specs) != 4 {
		t.Fatalf("plan = %+v", plan)
	}
	for _, sp := range plan.Specs {
		if sp.Channel != ACC {
			t.Fatalf("channel restriction not applied: %v", sp)
		}
	}
	if _, err := plan.Injector(); err != nil {
		t.Fatal(err)
	}
	if p, err := ParseDrift("", 42); err != nil || p.Seed != 42 || p.Print != 1 || len(p.Specs) != 0 {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	for _, bad := range []string{"gain", "gain=x", "bogus=1", "channel=XYZ", "print=-1", "gain=-0.1"} {
		if _, err := ParseDrift(bad, 1); err == nil {
			t.Fatalf("ParseDrift(%q) should fail", bad)
		}
	}
}
