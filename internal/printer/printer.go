package printer

import (
	"fmt"
	"math"
	"math/rand"

	"nsync/internal/gcode"
)

// NoiseModel holds the time-noise parameters of the simulator — the
// phenomenon at the heart of the paper. Each mechanism corresponds to a
// cause the paper names (Section I): "frame drops in data acquisition
// systems, mechanical and thermal delays in devices, and task scheduling"
// (frame drops live in the sensor package; the rest live here).
type NoiseModel struct {
	// DurationJitter is the standard deviation of the per-move duration
	// multiplier (lognormal around 1). 0.01 means moves take ~1% more or
	// less time on each execution.
	DurationJitter float64
	// GapProbability is the chance, per move, of a random scheduling gap
	// before execution; GapMean is the mean gap length in seconds
	// (exponential).
	GapProbability float64
	GapMean        float64
	// ThermalJitter perturbs the heater power per run (multiplicative,
	// stddev), making M109/M190 waits take varying time.
	ThermalJitter float64
}

// Heater is a first-order thermal element under bang-bang control.
type Heater struct {
	// Power is the heating rate at full duty, Celsius per second.
	Power float64
	// LossCoeff is the cooling rate constant, 1/s (Newton cooling toward
	// ambient).
	LossCoeff float64
	// Hysteresis is the bang-bang band in Celsius.
	Hysteresis float64
}

// Profile describes one printer. Values are representative of the two
// machines in the paper's testbed rather than exact datasheet numbers; what
// matters for the reproduction is that the two differ in kinematics,
// speeds, and noise statistics.
type Profile struct {
	Name       string
	Kinematics Kinematics
	// MaxFeed caps commanded feed rates (mm/s); Accel is the planner
	// acceleration (mm/s^2).
	MaxFeed, Accel float64
	// HomePos is where G28 parks the tool.
	HomePos Vec3
	// Hotend and Bed are the two heaters; Ambient is room temperature.
	Hotend, Bed Heater
	Ambient     float64
	// Noise is the time-noise model.
	Noise NoiseModel
}

// UM3 returns a profile for the Ultimaker 3: Cartesian, fast XY gantry.
func UM3() Profile {
	return Profile{
		Name:       "UM3",
		Kinematics: Cartesian{},
		MaxFeed:    150,
		Accel:      3000,
		HomePos:    Vec3{0, 0, 10},
		Hotend:     Heater{Power: 8, LossCoeff: 0.025, Hysteresis: 1.0},
		Bed:        Heater{Power: 1.2, LossCoeff: 0.008, Hysteresis: 0.8},
		Ambient:    25,
		Noise: NoiseModel{
			DurationJitter: 0.002,
			GapProbability: 0.05,
			GapMean:        0.005,
			ThermalJitter:  0.05,
		},
	}
}

// RM3 returns a profile for the SeeMeCNC Rostock Max V3: delta kinematics,
// lighter effector, noisier motion timing (the paper's Table IV uses much
// tighter DWM windows for RM3, consistent with faster-varying h_disp).
func RM3() Profile {
	return Profile{
		Name:       "RM3",
		Kinematics: Delta{ArmLength: 290, TowerRadius: 140},
		MaxFeed:    200,
		Accel:      1800,
		HomePos:    Vec3{0, 0, 300},
		Hotend:     Heater{Power: 10, LossCoeff: 0.03, Hysteresis: 1.2},
		Bed:        Heater{Power: 0.9, LossCoeff: 0.006, Hysteresis: 0.8},
		Ambient:    25,
		Noise: NoiseModel{
			DurationJitter: 0.003,
			GapProbability: 0.06,
			GapMean:        0.008,
			ThermalJitter:  0.08,
		},
	}
}

// FirmwareHook rewrites each command just before execution, modeling the
// paper's firmware attacker (Section IV): the printer misbehaves even
// though the G-code stream is benign. Returning nil drops the command.
type FirmwareHook func(cmd gcode.Command) *gcode.Command

// Options configure one simulation run.
type Options struct {
	// Seed drives all randomness of the run; two runs with different seeds
	// model two physical executions (different time noise).
	Seed int64
	// TraceRate is the master sampling rate in Hz (default 2000).
	TraceRate float64
	// InitialHotend / InitialBed set starting temperatures; defaults to
	// ambient. Experiments start warm so heat-up does not dominate runtime.
	InitialHotend, InitialBed float64
	// Firmware, if non-nil, is the firmware-attack hook.
	Firmware FirmwareHook
	// MaxDuration aborts runaway simulations (default 3600 s).
	MaxDuration float64
	// DisableNoise turns off all time noise (ideal machine), used by
	// experiments that need a noise-free baseline.
	DisableNoise bool
}

func (o Options) withDefaults(p Profile) Options {
	if o.TraceRate == 0 {
		o.TraceRate = 2000
	}
	if o.InitialHotend == 0 {
		o.InitialHotend = p.Ambient
	}
	if o.InitialBed == 0 {
		o.InitialBed = p.Ambient
	}
	if o.MaxDuration == 0 {
		o.MaxDuration = 3600
	}
	return o
}

// simulator is the execution state of one run.
type simulator struct {
	prof  Profile
	opts  Options
	rng   *rand.Rand
	trace *Trace

	timeNow   float64
	nextTick  int
	pos       Vec3
	e         float64
	feed      float64 // current feed, mm/s
	fan       float64
	hotendT   float64
	bedT      float64
	hotendTgt float64
	bedTgt    float64
	hotendOn  bool
	bedOn     bool
	hotPower  float64 // heater power after per-run thermal jitter
	bedPower  float64
	layer     int
	prevAct   [3]float64
	havePrev  bool
}

// Run executes a G-code program on the simulated printer and returns the
// physical trace.
func Run(prog *gcode.Program, prof Profile, opts Options) (*Trace, error) {
	if prof.Kinematics == nil {
		return nil, fmt.Errorf("printer: profile %q has no kinematics", prof.Name)
	}
	opts = opts.withDefaults(prof)
	sim := &simulator{
		prof:     prof,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		trace:    &Trace{Rate: opts.TraceRate},
		pos:      prof.HomePos,
		feed:     prof.MaxFeed / 2,
		hotendT:  opts.InitialHotend,
		bedT:     opts.InitialBed,
		layer:    -1,
		hotPower: prof.Hotend.Power,
		bedPower: prof.Bed.Power,
	}
	if !opts.DisableNoise && prof.Noise.ThermalJitter > 0 {
		sim.hotPower *= math.Exp(sim.rng.NormFloat64() * prof.Noise.ThermalJitter)
		sim.bedPower *= math.Exp(sim.rng.NormFloat64() * prof.Noise.ThermalJitter)
	}
	if err := sim.run(prog); err != nil {
		return nil, err
	}
	return sim.trace, nil
}

func (s *simulator) run(prog *gcode.Program) error {
	// The firmware hook rewrites the command stream once, before
	// execution, exactly as compromised firmware would.
	cmds := prog.Commands
	if s.opts.Firmware != nil {
		cmds = make([]gcode.Command, 0, len(prog.Commands))
		for i := range prog.Commands {
			out := s.opts.Firmware(prog.Commands[i].Clone())
			if out == nil {
				continue
			}
			cmds = append(cmds, *out)
		}
	}
	cmds, err := s.expandArcs(cmds)
	if err != nil {
		return err
	}
	for i := 0; i < len(cmds); i++ {
		if err := s.execute(cmds, &i); err != nil {
			return err
		}
		if s.timeNow > s.opts.MaxDuration {
			return fmt.Errorf("printer: simulation exceeded %v s", s.opts.MaxDuration)
		}
	}
	return nil
}

// expandArcs interpolates G2/G3 commands into G1 chords, tracking machine
// state through the program the way firmware would.
func (s *simulator) expandArcs(cmds []gcode.Command) ([]gcode.Command, error) {
	hasArc := false
	for i := range cmds {
		if cmds[i].Code == "G2" || cmds[i].Code == "G3" {
			hasArc = true
			break
		}
	}
	if !hasArc {
		return cmds, nil
	}
	out := make([]gcode.Command, 0, len(cmds))
	x, y, z := s.pos.X, s.pos.Y, s.pos.Z
	e := s.e
	for i := range cmds {
		cmd := cmds[i]
		switch cmd.Code {
		case "G2", "G3":
			chords, err := expandArc(cmd, x, y, z, e)
			if err != nil {
				return nil, err
			}
			out = append(out, chords...)
			x = cmd.GetDefault('X', x)
			y = cmd.GetDefault('Y', y)
			z = cmd.GetDefault('Z', z)
			e = cmd.GetDefault('E', e)
		case "G0", "G1":
			x = cmd.GetDefault('X', x)
			y = cmd.GetDefault('Y', y)
			z = cmd.GetDefault('Z', z)
			e = cmd.GetDefault('E', e)
			out = append(out, cmd)
		case "G28":
			x, y, z = s.prof.HomePos.X, s.prof.HomePos.Y, s.prof.HomePos.Z
			out = append(out, cmd)
		case "G92":
			if v, ok := cmd.Get('E'); ok {
				e = v
			}
			out = append(out, cmd)
		default:
			out = append(out, cmd)
		}
	}
	return out, nil
}

// execute dispatches the command at *i, advancing *i past any gathered
// motion run.
func (s *simulator) execute(cmds []gcode.Command, i *int) error {
	cmd := cmds[*i]
	if c := cmd.Comment; len(c) >= 6 && c[:6] == "LAYER:" {
		s.layer++
		s.trace.LayerStart = append(s.trace.LayerStart, s.timeNow)
	}
	switch cmd.Code {
	case "G0", "G1":
		return s.executeMotionRun(cmds, i)
	case "G4":
		secs := cmd.GetDefault('S', 0) + cmd.GetDefault('P', 0)/1000
		s.advance(secs, nil)
	case "G28":
		return s.home()
	case "G92":
		if e, ok := cmd.Get('E'); ok {
			s.e = e
		}
		// X/Y/Z redefinitions are accepted but keep physical position.
	case "M104":
		s.hotendTgt = cmd.GetDefault('S', 0)
	case "M140":
		s.bedTgt = cmd.GetDefault('S', 0)
	case "M109":
		s.hotendTgt = cmd.GetDefault('S', s.hotendTgt)
		s.waitForHotend()
	case "M190":
		s.bedTgt = cmd.GetDefault('S', s.bedTgt)
		s.waitForBed()
	case "M106":
		s.fan = clamp(cmd.GetDefault('S', 255)/255, 0, 1)
	case "M107":
		s.fan = 0
	default:
		// Unknown codes are tolerated (real firmware ignores plenty).
	}
	return nil
}

// executeMotionRun decodes the maximal run of consecutive G0/G1 commands
// starting at *i, plans it with look-ahead, and executes it.
func (s *simulator) executeMotionRun(cmds []gcode.Command, i *int) error {
	var moves []move
	pos, e, feed := s.pos, s.e, s.feed
	j := *i
	for ; j < len(cmds); j++ {
		cmd := cmds[j]
		if !cmd.IsMove() {
			break
		}
		target := Vec3{
			cmd.GetDefault('X', pos.X),
			cmd.GetDefault('Y', pos.Y),
			cmd.GetDefault('Z', pos.Z),
		}
		if f, ok := cmd.Get('F'); ok {
			feed = clamp(f/60, 0.1, s.prof.MaxFeed)
		}
		eEnd := cmd.GetDefault('E', e)
		delta := target.Sub(pos)
		dist := delta.Norm()
		m := move{
			start:    pos,
			target:   target,
			dist:     dist,
			eStart:   e,
			eEnd:     eEnd,
			feed:     feed,
			cmdIndex: j,
		}
		if dist > 0 {
			m.dir = delta.Mul(1 / dist)
		}
		moves = append(moves, m)
		pos, e = target, eEnd
	}
	*i = j - 1

	planJunctions(moves, s.prof.Accel)
	for k := range moves {
		s.executeMove(&moves[k])
	}
	s.pos, s.e, s.feed = pos, e, feed
	return nil
}

// executeMove advances the simulation through one planned move, applying
// per-move duration jitter and random scheduling gaps.
func (s *simulator) executeMove(m *move) {
	if !s.opts.DisableNoise && s.prof.Noise.GapProbability > 0 &&
		s.rng.Float64() < s.prof.Noise.GapProbability {
		gap := s.rng.ExpFloat64() * s.prof.Noise.GapMean
		s.advance(gap, nil)
	}
	dur := m.duration(s.prof.Accel)
	if dur <= 0 {
		s.pos = m.target
		s.e = m.eEnd
		return
	}
	jitter := 1.0
	if !s.opts.DisableNoise && s.prof.Noise.DurationJitter > 0 {
		jitter = math.Exp(s.rng.NormFloat64() * s.prof.Noise.DurationJitter)
	}
	wall := dur * jitter
	eRate := (m.eEnd - m.eStart) / wall
	prof := m.profile(s.prof.Accel)
	s.advance(wall, func(tWall float64) (Vec3, Vec3, float64) {
		// Map wall-clock time back to nominal profile time: the move takes
		// jitter times longer but follows the same geometric path.
		tNom := tWall / jitter
		dist, speed := m.at(tNom, s.prof.Accel, prof)
		p := m.start.Add(m.dir.Mul(dist))
		v := m.dir.Mul(speed / jitter)
		return p, v, eRate
	})
	s.pos = m.target
	s.e = m.eEnd
}

// home executes G28: travel to the home position.
func (s *simulator) home() error {
	delta := s.prof.HomePos.Sub(s.pos)
	dist := delta.Norm()
	if dist >= 1e-9 {
		m := move{
			start:  s.pos,
			target: s.prof.HomePos,
			dir:    delta.Mul(1 / dist),
			dist:   dist,
			eStart: s.e, eEnd: s.e,
			feed: s.prof.MaxFeed / 2,
		}
		s.executeMove(&m)
		// A short slow re-probe, as real homing does.
		s.advance(0.3, nil)
	}
	s.trace.Events = append(s.trace.Events, Event{s.timeNow, "homed"})
	return nil
}

// waitForHotend advances until the hotend reaches its target (within 0.5 C)
// or a deadline passes. Because heater power carries per-run thermal
// jitter, the wait duration is itself a source of time noise.
func (s *simulator) waitForHotend() {
	deadline := s.timeNow + 600
	for s.hotendT < s.hotendTgt-0.5 && s.timeNow < deadline {
		s.advance(0.05, nil)
	}
	s.trace.Events = append(s.trace.Events, Event{s.timeNow, "hotend-ready"})
}

// waitForBed is waitForHotend for the bed heater.
func (s *simulator) waitForBed() {
	deadline := s.timeNow + 600
	for s.bedT < s.bedTgt-0.5 && s.timeNow < deadline {
		s.advance(0.05, nil)
	}
	s.trace.Events = append(s.trace.Events, Event{s.timeNow, "bed-ready"})
}

// advance progresses simulated time by dt seconds, emitting trace samples
// at the master rate. motion, when non-nil, reports tool position, tool
// velocity and extruder rate at a local time offset; nil means the machine
// is stationary.
func (s *simulator) advance(dt float64, motion func(t float64) (Vec3, Vec3, float64)) {
	if dt <= 0 {
		return
	}
	t0 := s.timeNow
	end := t0 + dt
	rate := s.opts.TraceRate
	// The step emits every tick at or before end; reserve their slots at
	// once.
	k := 0
	for float64(s.nextTick+k)/rate <= end {
		k++
	}
	for i := s.trace.reserve(k); i < s.trace.Len(); i++ {
		tLocal := float64(s.nextTick)/rate - t0
		pos, vel, eRate := s.pos, Vec3{}, 0.0
		if motion != nil {
			pos, vel, eRate = motion(tLocal)
		}
		s.stepThermal(1 / rate)
		s.emitSample(i, pos, vel, eRate)
		s.nextTick++
	}
	s.timeNow = end
}

// stepThermal advances both bang-bang heaters by dt.
func (s *simulator) stepThermal(dt float64) {
	stepOne := func(t *float64, on *bool, tgt float64, h Heater, power float64) {
		if tgt <= 0 {
			*on = false
		} else if *t < tgt-h.Hysteresis {
			*on = true
		} else if *t > tgt+h.Hysteresis {
			*on = false
		}
		p := 0.0
		if *on {
			p = power
		}
		*t += (p - h.LossCoeff*(*t-s.prof.Ambient)) * dt
	}
	stepOne(&s.hotendT, &s.hotendOn, s.hotendTgt, s.prof.Hotend, s.hotPower)
	stepOne(&s.bedT, &s.bedOn, s.bedTgt, s.prof.Bed, s.bedPower)
}

// emitSample writes the current physical state into trace slot i.
func (s *simulator) emitSample(i int, pos Vec3, vel Vec3, eRate float64) {
	tr := s.trace
	tr.X[i], tr.Y[i], tr.Z[i] = pos.X, pos.Y, pos.Z
	tr.VX[i], tr.VY[i], tr.VZ[i] = vel.X, vel.Y, vel.Z
	act, err := s.prof.Kinematics.Actuators(pos)
	if err != nil {
		// Out-of-envelope positions degrade to zero motor motion rather
		// than failing mid-print; tests catch unreachable toolpaths.
		act = s.prevAct
	}
	for m := 0; m < 3; m++ {
		tr.MotorV[m][i] = 0
		if s.havePrev {
			tr.MotorV[m][i] = (act[m] - s.prevAct[m]) * tr.Rate
		}
		tr.MotorP[m][i] = act[m]
	}
	s.prevAct = act
	s.havePrev = true
	tr.E[i] = s.e
	tr.EVel[i] = eRate
	tr.Fan[i] = s.fan
	tr.Hotend[i] = s.hotendT
	tr.Bed[i] = s.bedT
	tr.HotendOn[i], tr.BedOn[i] = 0, 0
	if s.hotendOn {
		tr.HotendOn[i] = 1
	}
	if s.bedOn {
		tr.BedOn[i] = 1
	}
	tr.Layer[i] = s.layer
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
