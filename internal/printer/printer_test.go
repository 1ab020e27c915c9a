package printer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nsync/internal/gcode"
	"nsync/internal/slicer"
)

func mustParse(t *testing.T, src string) *gcode.Program {
	t.Helper()
	p, err := gcode.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func quietOpts(seed int64) Options {
	return Options{
		Seed:          seed,
		TraceRate:     500,
		InitialHotend: 200,
		InitialBed:    58,
	}
}

func TestCartesianActuators(t *testing.T) {
	act, err := Cartesian{}.Actuators(Vec3{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if act != [3]float64{1, 2, 3} {
		t.Errorf("Actuators = %v", act)
	}
}

func TestDeltaInverseForwardRoundTrip(t *testing.T) {
	d := Delta{ArmLength: 290, TowerRadius: 140}
	rng := rand.New(rand.NewSource(60))
	f := func() bool {
		p := Vec3{rng.Float64()*120 - 60, rng.Float64()*120 - 60, rng.Float64() * 150}
		car, err := d.Actuators(p)
		if err != nil {
			return false
		}
		back, err := d.ForwardDelta(car)
		if err != nil {
			return false
		}
		return back.Sub(p).Norm() < 1e-6
	}
	for i := 0; i < 50; i++ {
		if !f() {
			t.Fatal("delta kinematics round trip failed")
		}
	}
}

func TestDeltaUnreachable(t *testing.T) {
	d := Delta{ArmLength: 100, TowerRadius: 140}
	if _, err := d.Actuators(Vec3{200, 200, 0}); err == nil {
		t.Error("unreachable position: want error")
	}
}

func TestDeltaMotorsMoveNonlinearly(t *testing.T) {
	// A straight XY move must produce non-constant carriage velocity.
	prog := mustParse(t, "G1 X-50 Y0 Z10 F6000\nG1 X50 Y0 F3000")
	tr, err := Run(prog, RM3(), Options{Seed: 1, TraceRate: 1000, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	// During the cruise phase of the second move, tower velocities change.
	n := tr.Len()
	v0 := tr.MotorV[0][n*2/3]
	v1 := tr.MotorV[0][n*5/6]
	if math.Abs(v0-v1) < 1e-6 {
		t.Errorf("delta carriage velocity constant during XY move: %v vs %v", v0, v1)
	}
}

func TestTrapezoidProfile(t *testing.T) {
	m := move{dist: 100, feed: 50, dir: Vec3{1, 0, 0}}
	p := m.profile(1000)
	tAcc, tCruise, tDec, vPeak := p.tAcc, p.tCruise, p.tDec, p.vPeak
	if vPeak != 50 {
		t.Errorf("vPeak = %v, want 50", vPeak)
	}
	if math.Abs(tAcc-0.05) > 1e-9 || math.Abs(tDec-0.05) > 1e-9 {
		t.Errorf("tAcc/tDec = %v/%v, want 0.05", tAcc, tDec)
	}
	// Distance: accel 1.25 + decel 1.25 + cruise 97.5 => tCruise 1.95.
	if math.Abs(tCruise-1.95) > 1e-9 {
		t.Errorf("tCruise = %v, want 1.95", tCruise)
	}
	// Total distance covered matches.
	s, v := m.at(tAcc+tCruise+tDec, 1000, p)
	if math.Abs(s-100) > 1e-6 || math.Abs(v) > 1e-6 {
		t.Errorf("end state s=%v v=%v", s, v)
	}
}

func TestTriangleProfile(t *testing.T) {
	// Too short to reach cruise speed.
	m := move{dist: 1, feed: 100, dir: Vec3{1, 0, 0}}
	p := m.profile(1000)
	want := math.Sqrt(1000) // sqrt(2*a*d/2) = sqrt(a*d)
	if math.Abs(p.vPeak-want) > 1e-9 {
		t.Errorf("vPeak = %v, want %v", p.vPeak, want)
	}
	if p.tCruise > 1e-9 {
		t.Errorf("tCruise = %v, want 0", p.tCruise)
	}
}

func TestMoveAtMonotone(t *testing.T) {
	m := move{dist: 10, feed: 30, vIn: 5, vOut: 10, dir: Vec3{1, 0, 0}}
	a := 500.0
	dur := m.duration(a)
	p := m.profile(a)
	prev := -1.0
	for i := 0; i <= 100; i++ {
		s, v := m.at(dur*float64(i)/100, a, p)
		if s < prev-1e-9 {
			t.Fatalf("distance went backwards at %d: %v < %v", i, s, prev)
		}
		if v < -1e-9 || v > 30+1e-9 {
			t.Fatalf("speed %v outside [0, feed]", v)
		}
		prev = s
	}
}

func TestPlanJunctionsRespectsAccel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var moves []move
		pos := Vec3{}
		for i := 0; i < 20; i++ {
			target := Vec3{rng.Float64() * 100, rng.Float64() * 100, 0}
			delta := target.Sub(pos)
			dist := delta.Norm()
			if dist < 1e-9 {
				continue
			}
			moves = append(moves, move{
				start: pos, target: target, dist: dist,
				dir:  delta.Mul(1 / dist),
				feed: 10 + rng.Float64()*90,
			})
			pos = target
		}
		const accel = 800
		planJunctions(moves, accel)
		for i, m := range moves {
			if m.vIn > m.feed+1e-9 || m.vOut > m.feed+1e-9 {
				return false
			}
			// Reachability: |vOut^2 - vIn^2| <= 2*a*d.
			if math.Abs(m.vOut*m.vOut-m.vIn*m.vIn) > 2*accel*m.dist+1e-6 {
				return false
			}
			if i == 0 && m.vIn != 0 {
				return false
			}
		}
		return moves[len(moves)-1].vOut == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRunSimpleProgram(t *testing.T) {
	prog := mustParse(t, `G28
G1 X50 Y0 Z10 F6000
G1 X50 Y50 F3000
G4 P250
G1 X0 Y0 F6000
`)
	tr, err := Run(prog, UM3(), Options{Seed: 7, TraceRate: 1000, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 100 {
		t.Fatalf("trace too short: %d samples", tr.Len())
	}
	// Final position back at origin (within a sample of motion).
	last := tr.Len() - 1
	if math.Abs(tr.X[last]) > 0.5 || math.Abs(tr.Y[last]) > 0.5 {
		t.Errorf("final position (%v, %v), want ~origin", tr.X[last], tr.Y[last])
	}
	// Speed never exceeds commanded feeds.
	for i := 0; i < tr.Len(); i++ {
		speed := math.Sqrt(tr.VX[i]*tr.VX[i] + tr.VY[i]*tr.VY[i] + tr.VZ[i]*tr.VZ[i])
		if speed > 100+1e-6 {
			t.Fatalf("sample %d speed %v exceeds max commanded 100", i, speed)
		}
	}
}

func TestRunDwellIsStationary(t *testing.T) {
	prog := mustParse(t, "G1 X10 F6000\nG4 S1\nG1 X20 F6000")
	tr, err := Run(prog, UM3(), Options{Seed: 1, TraceRate: 200, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find a window in the middle of the dwell: velocity must be 0.
	mid := tr.Len() / 2
	if tr.VX[mid] != 0 || tr.VY[mid] != 0 {
		t.Errorf("moving during dwell: v=(%v,%v)", tr.VX[mid], tr.VY[mid])
	}
}

func TestAccelerationLimit(t *testing.T) {
	prog := mustParse(t, "G1 X100 F9000")
	prof := UM3()
	tr, err := Run(prog, prof, Options{Seed: 1, TraceRate: 2000, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tr.Len(); i++ {
		a := (tr.VX[i] - tr.VX[i-1]) * tr.Rate
		if math.Abs(a) > prof.Accel*1.05+1 {
			t.Fatalf("sample %d acceleration %v exceeds limit %v", i, a, prof.Accel)
		}
	}
}

func TestTimeNoiseMakesDurationsVary(t *testing.T) {
	cfg := slicer.DefaultConfig()
	cfg.TotalHeight = 0.2
	prog, err := slicer.Slice(slicer.Gear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	durations := make([]float64, 0, 4)
	for seed := int64(0); seed < 4; seed++ {
		tr, err := Run(prog, UM3(), quietOpts(seed))
		if err != nil {
			t.Fatal(err)
		}
		durations = append(durations, tr.Duration())
	}
	allSame := true
	for _, d := range durations[1:] {
		if math.Abs(d-durations[0]) > 1e-6 {
			allSame = false
		}
	}
	if allSame {
		t.Errorf("time noise produced identical durations: %v", durations)
	}
	// But the variation is small relative to the total (paper: "very small
	// compared with the duration of a printing process").
	for _, d := range durations[1:] {
		if math.Abs(d-durations[0]) > 0.1*durations[0] {
			t.Errorf("duration variation too large: %v vs %v", d, durations[0])
		}
	}
}

func TestNoiseDisabledIsDeterministic(t *testing.T) {
	prog := mustParse(t, "G1 X50 F6000\nG1 Y50 F3000\nG1 X0 Y0 F6000")
	tr1, err := Run(prog, UM3(), Options{Seed: 1, TraceRate: 500, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Run(prog, UM3(), Options{Seed: 999, TraceRate: 500, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Len() != tr2.Len() {
		t.Fatalf("noise-free runs differ in length: %d vs %d", tr1.Len(), tr2.Len())
	}
	for i := 0; i < tr1.Len(); i++ {
		if tr1.X[i] != tr2.X[i] || tr1.Y[i] != tr2.Y[i] {
			t.Fatalf("noise-free runs diverge at sample %d", i)
		}
	}
}

func TestSameSeedIsReproducible(t *testing.T) {
	prog := mustParse(t, "G1 X50 F6000\nG1 Y50 F3000")
	tr1, err := Run(prog, UM3(), quietOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Run(prog, UM3(), quietOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Len() != tr2.Len() {
		t.Fatalf("same-seed runs differ: %d vs %d samples", tr1.Len(), tr2.Len())
	}
}

func TestHeatingWait(t *testing.T) {
	prog := mustParse(t, "M109 S205\nG1 X10 F6000")
	tr, err := Run(prog, UM3(), Options{Seed: 3, TraceRate: 200, InitialHotend: 180})
	if err != nil {
		t.Fatal(err)
	}
	// Temperature must reach the target.
	last := tr.Len() - 1
	if tr.Hotend[last] < 203 {
		t.Errorf("hotend ended at %v, want ~205", tr.Hotend[last])
	}
	// Heating takes nonzero time from 180 C.
	if tr.Duration() < 0.5 {
		t.Errorf("heat-up took only %v s", tr.Duration())
	}
}

func TestBangBangHeaterCycles(t *testing.T) {
	prog := mustParse(t, "M104 S205\nM140 S60\nG4 S30")
	tr, err := Run(prog, UM3(), Options{Seed: 5, TraceRate: 100, InitialHotend: 205, InitialBed: 60})
	if err != nil {
		t.Fatal(err)
	}
	transitions := 0
	for i := 1; i < tr.Len(); i++ {
		if tr.HotendOn[i] != tr.HotendOn[i-1] {
			transitions++
		}
	}
	if transitions < 2 {
		t.Errorf("heater transitions = %d, want bang-bang cycling", transitions)
	}
	// Temperature stays within a sane band around the target.
	for i := tr.Len() / 2; i < tr.Len(); i++ {
		if tr.Hotend[i] < 195 || tr.Hotend[i] > 215 {
			t.Fatalf("hotend wandered to %v", tr.Hotend[i])
		}
	}
}

func TestLayerTracking(t *testing.T) {
	cfg := slicer.DefaultConfig()
	cfg.TotalHeight = 0.6 // 3 layers
	prog, err := slicer.Slice(slicer.Gear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(prog, UM3(), quietOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.LayerStart) != 3 {
		t.Fatalf("layer starts = %d, want 3", len(tr.LayerStart))
	}
	last := tr.Len() - 1
	if tr.Layer[last] != 2 {
		t.Errorf("final layer index = %d, want 2", tr.Layer[last])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFirmwareHookModifiesBehaviour(t *testing.T) {
	prog := mustParse(t, "G1 X100 F6000")
	slowdown := func(cmd gcode.Command) *gcode.Command {
		if cmd.IsMove() {
			if f, ok := cmd.Get('F'); ok {
				cmd.Set('F', f/2)
			}
		}
		return &cmd
	}
	fast, err := Run(prog, UM3(), Options{Seed: 1, TraceRate: 500, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(prog, UM3(), Options{Seed: 1, TraceRate: 500, DisableNoise: true, Firmware: slowdown})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration() < fast.Duration()*1.5 {
		t.Errorf("firmware slowdown: %v vs %v", slow.Duration(), fast.Duration())
	}
}

func TestFirmwareHookDropsCommands(t *testing.T) {
	prog := mustParse(t, "G1 X50 F6000\nG4 S5\nG1 X0 F6000")
	dropDwells := func(cmd gcode.Command) *gcode.Command {
		if cmd.Code == "G4" {
			return nil
		}
		return &cmd
	}
	tr, err := Run(prog, UM3(), Options{Seed: 1, TraceRate: 200, DisableNoise: true, Firmware: dropDwells})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration() > 3 {
		t.Errorf("dropped dwell still took %v s", tr.Duration())
	}
}

func TestMaxDurationGuard(t *testing.T) {
	prog := mustParse(t, "G4 S100")
	if _, err := Run(prog, UM3(), Options{Seed: 1, TraceRate: 100, MaxDuration: 1}); err == nil {
		t.Error("MaxDuration exceeded: want error")
	}
}

func TestNoKinematicsError(t *testing.T) {
	if _, err := Run(&gcode.Program{}, Profile{Name: "bad"}, Options{}); err == nil {
		t.Error("missing kinematics: want error")
	}
}

func TestInterp(t *testing.T) {
	tr := &Trace{Rate: 10, X: []float64{0, 10, 20}}
	tests := []struct {
		t    float64
		want float64
	}{
		{-1, 0}, {0, 0}, {0.05, 5}, {0.1, 10}, {0.15, 15}, {0.2, 20}, {5, 20},
	}
	for _, tt := range tests {
		if got := tr.At(tt.t).Of(tr.X); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("At(%v).Of(X) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if got := tr.At(0.05).Of(tr.Y); got != 0 {
		t.Errorf("At(0.05).Of(empty) = %v, want 0", got)
	}
}

func TestVec3Ops(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if v.Add(w) != (Vec3{5, 7, 9}) || w.Sub(v) != (Vec3{3, 3, 3}) {
		t.Error("Add/Sub wrong")
	}
	if v.Dot(w) != 32 {
		t.Error("Dot wrong")
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-12 {
		t.Error("Norm wrong")
	}
	if v.Mul(2) != (Vec3{2, 4, 6}) {
		t.Error("Mul wrong")
	}
}
