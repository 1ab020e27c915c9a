// Package sensor synthesizes the six side-channel signals of Table II of
// the paper from a simulated printer trace. Each model reproduces the
// qualitative property the paper's evaluation depends on:
//
//   - ACC, AUD, MAG are strongly correlated with printer state (they drive
//     successful DWM synchronization in Fig. 10);
//   - TMP and PWR are weakly correlated (the paper drops them after Fig. 10);
//   - raw EPT is dominated by mains hum with a run-random phase, so only its
//     spectrogram is informative (exactly the paper's finding).
//
// The package also models the data-acquisition effects the paper names:
// per-run gain drift (why NSYNC needs gain-invariant distances) and frame
// drops (a DAQ-side source of time noise).
package sensor

import (
	"fmt"
	"math"
	"math/rand"

	"nsync/internal/printer"
	"nsync/internal/sigproc"
)

// Channel identifies one of the six side channels of Table II.
type Channel int

// The six side channels.
const (
	ACC Channel = iota + 1 // acceleration, MPU9250, 6 channels
	TMP                    // temperature, MPU9250, 1 channel
	MAG                    // magnetic field, MPU9250, 3 channels
	AUD                    // audio, AKG170, 2 channels
	EPT                    // electric potential, modified AKG170, 1 channel
	PWR                    // AC power/current, SCT013, 1 channel
)

// AllChannels lists every side channel in Table II order.
var AllChannels = []Channel{ACC, TMP, MAG, AUD, EPT, PWR}

// String implements fmt.Stringer.
func (c Channel) String() string {
	switch c {
	case ACC:
		return "ACC"
	case TMP:
		return "TMP"
	case MAG:
		return "MAG"
	case AUD:
		return "AUD"
	case EPT:
		return "EPT"
	case PWR:
		return "PWR"
	default:
		return fmt.Sprintf("Channel(%d)", int(c))
	}
}

// Rates holds the sampling frequency of each side channel in Hz.
type Rates struct {
	ACC, TMP, MAG, AUD, EPT, PWR float64
}

// PaperRates returns the Table II sampling rates.
func PaperRates() Rates {
	return Rates{ACC: 4000, TMP: 4000, MAG: 100, AUD: 48000, EPT: 96000, PWR: 12000}
}

// Scaled returns the rates divided by div, preserving the Table II ratios.
// The CI-scale experiments use div = 10.
func (r Rates) Scaled(div float64) Rates {
	return Rates{
		ACC: r.ACC / div, TMP: r.TMP / div, MAG: r.MAG / div,
		AUD: r.AUD / div, EPT: r.EPT / div, PWR: r.PWR / div,
	}
}

// Of returns the rate for a channel.
func (r Rates) Of(c Channel) float64 {
	switch c {
	case ACC:
		return r.ACC
	case TMP:
		return r.TMP
	case MAG:
		return r.MAG
	case AUD:
		return r.AUD
	case EPT:
		return r.EPT
	case PWR:
		return r.PWR
	default:
		return 0
	}
}

// Channels returns the channel count of a side-channel signal (Table II).
func Channels(c Channel) int {
	switch c {
	case ACC:
		return 6
	case MAG:
		return 3
	case AUD:
		return 2
	default:
		return 1
	}
}

// Config describes the acquisition chain.
type Config struct {
	// Rates are the per-channel sampling rates.
	Rates Rates
	// GainSigma is the per-run multiplicative gain drift (lognormal
	// stddev). Real sensor gain depends on placement and ADC settings; the
	// paper's argument for correlation distance rests on this.
	GainSigma float64
	// NoiseLevel scales additive white measurement noise.
	NoiseLevel float64
	// FrameDropRate is the expected number of drop events per second;
	// each event removes 1..FrameDropMax consecutive samples, shifting all
	// later samples earlier — DAQ-side time noise.
	FrameDropRate float64
	FrameDropMax  int
	// MainsHz is the power-line frequency leaking into EPT and PWR.
	MainsHz float64
}

// DefaultConfig returns a realistic acquisition chain at CI-scale rates
// (Table II divided by 10).
func DefaultConfig() Config {
	return Config{
		Rates:         PaperRates().Scaled(10),
		GainSigma:     0.1,
		NoiseLevel:    1.0,
		FrameDropRate: 0.02,
		FrameDropMax:  4,
		MainsHz:       60,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	for _, ch := range AllChannels {
		if c.Rates.Of(ch) <= 0 {
			return fmt.Errorf("sensor: non-positive rate for %v", ch)
		}
	}
	if c.GainSigma < 0 || c.NoiseLevel < 0 || c.FrameDropRate < 0 {
		return fmt.Errorf("sensor: negative noise parameter")
	}
	if c.MainsHz <= 0 {
		return fmt.Errorf("sensor: MainsHz must be positive, got %v", c.MainsHz)
	}
	return nil
}

// Acquire synthesizes one side-channel signal from a trace. seed drives the
// run-specific randomness (sensor noise, gain drift, mains phase, frame
// drops); use a different seed per simulated run.
func Acquire(tr *printer.Trace, ch Channel, cfg Config, seed int64) (*sigproc.Signal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("sensor: empty trace")
	}
	rng := rand.New(rand.NewSource(seed ^ int64(ch)*0x1E3779B97F4A7C15))
	rate := cfg.Rates.Of(ch)
	n := int(tr.Duration() * rate)
	var sig *sigproc.Signal
	switch ch {
	case ACC:
		sig = acquireACC(tr, rate, n, cfg, rng)
	case TMP:
		sig = acquireTMP(tr, rate, n, cfg, rng)
	case MAG:
		sig = acquireMAG(tr, rate, n, cfg, rng)
	case AUD:
		sig = acquireAUD(tr, rate, n, cfg, rng)
	case EPT:
		sig = acquireEPT(tr, rate, n, cfg, rng)
	case PWR:
		sig = acquirePWR(tr, rate, n, cfg, rng)
	default:
		return nil, fmt.Errorf("sensor: unknown channel %v", ch)
	}
	applyGainDrift(sig, cfg, rng)
	sig = applyFrameDrops(sig, cfg, rng)
	return sig, nil
}

// AcquireAll captures every side channel from one trace, as the paper's
// data acquisition system did.
func AcquireAll(tr *printer.Trace, cfg Config, seed int64) (map[Channel]*sigproc.Signal, error) {
	out := make(map[Channel]*sigproc.Signal, len(AllChannels))
	for _, ch := range AllChannels {
		s, err := Acquire(tr, ch, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("sensor: %v: %w", ch, err)
		}
		out[ch] = s
	}
	return out, nil
}

// Silent sources. A motor at rest (|v| == 0), an idle extruder (eV == 0)
// and a stopped fan contribute a tone term of amplitude 0, which is ±0 for
// a finite phase. The models skip such a term and its sines, or leave it
// +0, wherever it reaches the sample only through a sum that starts at +0:
// such a sum is never −0, and x + ±0 == x for every x that is not −0, so
// every sample keeps its bits. ACC's extruder term joins accel + vib, which
// is never −0 either, because vib is such a sum. No skip moves a random
// draw.

// acquireACC models the printhead IMU: 3 accelerometer channels (tool
// acceleration, position-locked stepper vibration, extruder-motor vibration
// — the MPU9250 sits on the printhead right next to the extruder motor —
// and gravity on Z) and 3 gyroscope channels (frame rocking proportional to
// lateral acceleration). The extruder component is what lets ACC see
// extrusion-only sabotage such as the Void attack, whose motion toolpath is
// identical to the benign one.
func acquireACC(tr *printer.Trace, rate float64, n int, cfg Config, rng *rand.Rand) *sigproc.Signal {
	const (
		vibCyclesPerMM = 0.1   // vibration cycles per mm of actuator travel
		vibAmpPerSpeed = 0.004 // vibration amplitude per mm/s of speed
		extCyclesPerMM = 6     // extruder vibration cycles per mm of filament
		gyroCoupling   = 0.05
	)
	sig := sigproc.New(rate, 6, n)
	dt := 1 / rate
	vels := [3][]float64{tr.VX, tr.VY, tr.VZ}
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		before, at, after := tr.At(t-dt/2), tr.At(t), tr.At(t+dt/2)
		var accel [3]float64
		for a := 0; a < 3; a++ {
			v0 := before.Of(vels[a])
			v1 := after.Of(vels[a])
			accel[a] = (v1 - v0) / dt / 1000 // m/s^2-ish scale
		}
		// Position-locked stepper vibration, summed over motors, with the
		// harmonic-rich spectrum of real stepper cogging.
		var vib float64
		for m := 0; m < 3; m++ {
			v := math.Abs(at.Of(tr.MotorV[m]))
			if v == 0 {
				continue // silent
			}
			phase := 2 * math.Pi * vibCyclesPerMM * at.Of(tr.MotorP[m])
			vib += vibAmpPerSpeed * v * (math.Sin(phase) +
				0.5*math.Sin(2*phase) + 0.3*math.Sin(3*phase) + 0.2*math.Sin(5*phase))
		}
		// Extruder-motor vibration, locked to filament position.
		var extVib float64
		if eV := math.Abs(at.Of(tr.EVel)); eV != 0 {
			ePhase := 2 * math.Pi * extCyclesPerMM * at.Of(tr.E)
			extVib = 1.4 * (eV / (eV + 2)) * (math.Sin(ePhase) +
				0.5*math.Sin(2*ePhase) + 0.3*math.Sin(4*ePhase))
		}
		noise := func() float64 { return cfg.NoiseLevel * 0.01 * rng.NormFloat64() }
		sig.Data[0][i] = accel[0] + vib + 0.8*extVib + noise()
		sig.Data[1][i] = accel[1] + vib*0.8 + extVib + noise()
		sig.Data[2][i] = accel[2] + 9.81/1000 + vib*0.3 + 0.5*extVib + noise()
		// Gyro: frame rocking follows lateral acceleration.
		sig.Data[3][i] = gyroCoupling*accel[1] + noise()
		sig.Data[4][i] = -gyroCoupling*accel[0] + noise()
		sig.Data[5][i] = gyroCoupling*(accel[0]+accel[1])*0.5 + noise()
	}
	return sig
}

// acquireTMP models the IMU die temperature: it tracks the (slow) hotend
// temperature through a large thermal lag plus drift — weakly correlated
// with instantaneous printer state, as the paper found.
func acquireTMP(tr *printer.Trace, rate float64, n int, cfg Config, rng *rand.Rand) *sigproc.Signal {
	sig := sigproc.New(rate, 1, n)
	drift := rng.NormFloat64() * 0.5
	lagged := tr.At(0).Of(tr.Hotend) * 0.02
	for i := 0; i < n; i++ {
		t := float64(i) / rate
		// First-order lag toward 2% of hotend temperature (sensor sits far
		// from the heater).
		target := tr.At(t).Of(tr.Hotend) * 0.02
		lagged += (target - lagged) * 0.001
		sig.Data[0][i] = 25 + drift + lagged + cfg.NoiseLevel*0.02*rng.NormFloat64()
	}
	return sig
}

// acquireMAG models the magnetometer: stray fields from the stepper motors
// through a fixed coupling matrix, over the earth field. A motor's stray
// field depends on both its current (holding + speed-proportional) and its
// rotor angle, which is locked to actuator position — that rotor-angle
// component is what makes the magnetic side channel informative about the
// toolpath, not just about activity levels.
func acquireMAG(tr *printer.Trace, rate float64, n int, cfg Config, rng *rand.Rand) *sigproc.Signal {
	const rotorCyclesPerMM = 0.02 // slow rotor-angle field component
	coupling := [3][3]float64{
		{0.9, 0.2, 0.1},
		{0.15, 0.8, 0.25},
		{0.1, 0.3, 0.7},
	}
	earth := [3]float64{20, -5, 43}
	extCoupling := [3]float64{0.2, 0.25, 0.3}
	sig := sigproc.New(rate, 3, n)
	for i := 0; i < n; i++ {
		t := float64(i) / rate
		at := tr.At(t)
		var field [3]float64
		for m := 0; m < 3; m++ {
			v := math.Abs(at.Of(tr.MotorV[m]))
			current := 0.4 + 0.01*v
			angle := 2 * math.Pi * rotorCyclesPerMM * at.Of(tr.MotorP[m])
			field[m] = current * (1 + 0.8*math.Sin(angle) + 0.4*math.Sin(2*angle))
		}
		e := at.Of(tr.E)
		eV := math.Abs(at.Of(tr.EVel))
		extCurrent := (0.3 + 0.15*eV) * (1 + 0.8*math.Sin(2*math.Pi*rotorCyclesPerMM*20*e))
		for c := 0; c < 3; c++ {
			b := extCoupling[c] * extCurrent
			for m := 0; m < 3; m++ {
				b += coupling[c][m] * field[m]
			}
			sig.Data[c][i] = earth[c] + 5*b + cfg.NoiseLevel*0.3*rng.NormFloat64()
		}
	}
	return sig
}

// acquireAUD models the stereo microphone: position-locked stepper tones
// with speed-dependent amplitude, a fan hum, an extruder tone, and room
// noise. Because tone phase follows actuator position, the waveform is
// reproducible across runs up to time noise — the property DWM exploits on
// raw audio.
func acquireAUD(tr *printer.Trace, rate float64, n int, cfg Config, rng *rand.Rand) *sigproc.Signal {
	const (
		toneCyclesPerMM = 2   // stepper tone pitch, cycles per mm of travel
		extCyclesPerMM  = 20  // extruder tone
		fanHz           = 87. // fan blade-pass frequency at full duty
	)
	// Per-run fan phase: the fan is not position-locked.
	fanPhase := rng.Float64() * 2 * math.Pi
	mix := [2][3]float64{
		{1.0, 0.7, 0.5}, // left mic motor gains
		{0.6, 1.0, 0.8}, // right mic motor gains
	}
	sig := sigproc.New(rate, 2, n)
	for i := 0; i < n; i++ {
		t := float64(i) / rate
		at := tr.At(t)
		var motorTone [3]float64
		for m := 0; m < 3; m++ {
			v := math.Abs(at.Of(tr.MotorV[m]))
			if v == 0 {
				continue // silent
			}
			p := at.Of(tr.MotorP[m])
			amp := v / (v + 20) // saturating loudness with speed
			motorTone[m] = amp * (math.Sin(2*math.Pi*toneCyclesPerMM*p) +
				0.4*math.Sin(2*math.Pi*2*toneCyclesPerMM*p))
		}
		var extTone, fanTone float64
		if eV := math.Abs(at.Of(tr.EVel)); eV != 0 {
			extTone = (eV / (eV + 2)) * math.Sin(2*math.Pi*extCyclesPerMM*at.Of(tr.E))
		}
		if fan := at.Of(tr.Fan); fan != 0 {
			fanTone = 0.15 * fan * math.Sin(2*math.Pi*fanHz*fan*t+fanPhase)
		}
		for c := 0; c < 2; c++ {
			var s float64
			for m := 0; m < 3; m++ {
				s += mix[c][m] * motorTone[m]
			}
			s += 0.8*extTone + fanTone
			s += cfg.NoiseLevel * 0.05 * rng.NormFloat64()
			sig.Data[c][i] = s
		}
	}
	return sig
}

// acquireEPT models the contactless electric-potential probe: dominated by
// mains hum whose phase is random per run (so the raw waveform carries no
// printer information across runs), with weak printer-correlated sidebands
// from heater switching and motor drives. Its spectrogram separates the
// fixed hum bin from the informative bins, which is why the paper keeps
// only the EPT spectrogram.
func acquireEPT(tr *printer.Trace, rate float64, n int, cfg Config, rng *rand.Rand) *sigproc.Signal {
	mainsPhase := rng.Float64() * 2 * math.Pi
	const driveCyclesPerMM = 8
	sig := sigproc.New(rate, 1, n)
	for i := 0; i < n; i++ {
		t := float64(i) / rate
		at := tr.At(t)
		hum := math.Sin(2*math.Pi*cfg.MainsHz*t+mainsPhase) +
			0.12*math.Sin(2*math.Pi*3*cfg.MainsHz*t+3*mainsPhase)
		hum *= 1 + 0.08*at.Of(tr.HotendOn)
		var drive float64
		for m := 0; m < 3; m++ {
			v := math.Abs(at.Of(tr.MotorV[m]))
			if v == 0 {
				continue // silent
			}
			dPhase := 2 * math.Pi * driveCyclesPerMM * at.Of(tr.MotorP[m])
			drive += 0.12 * (v / (v + 20)) * (math.Sin(dPhase) + 0.5*math.Sin(3*dPhase))
		}
		if eV := math.Abs(at.Of(tr.EVel)); eV != 0 {
			ePhase := 2 * math.Pi * 2 * driveCyclesPerMM * at.Of(tr.E)
			drive += 0.12 * (eV / (eV + 2)) * (math.Sin(ePhase) + 0.5*math.Sin(2*ePhase))
		}
		sig.Data[0][i] = 10*hum + drive + cfg.NoiseLevel*0.02*rng.NormFloat64()
	}
	return sig
}

// acquirePWR models the clamp-on current sensor on the mains lead: the
// bang-bang heaters dominate, and their duty cycling drifts run to run, so
// the signal is only weakly correlated with motion — matching the paper's
// decision to drop PWR.
func acquirePWR(tr *printer.Trace, rate float64, n int, cfg Config, rng *rand.Rand) *sigproc.Signal {
	const (
		hotendAmps = 1.8
		bedAmps    = 4.5
		fanAmps    = 0.08
	)
	sig := sigproc.New(rate, 1, n)
	for i := 0; i < n; i++ {
		t := float64(i) / rate
		at := tr.At(t)
		amps := hotendAmps*at.Of(tr.HotendOn) + bedAmps*at.Of(tr.BedOn) +
			fanAmps*at.Of(tr.Fan)
		for m := 0; m < 3; m++ {
			v := math.Abs(at.Of(tr.MotorV[m]))
			amps += 0.002 * v
		}
		amps += 0.03 * math.Abs(at.Of(tr.EVel))
		sig.Data[0][i] = amps + cfg.NoiseLevel*0.05*rng.NormFloat64()
	}
	return sig
}

// applyGainDrift multiplies each channel by a per-run lognormal gain.
func applyGainDrift(sig *sigproc.Signal, cfg Config, rng *rand.Rand) {
	if cfg.GainSigma <= 0 {
		return
	}
	for c := range sig.Data {
		gain := math.Exp(rng.NormFloat64() * cfg.GainSigma)
		for i := range sig.Data[c] {
			sig.Data[c][i] *= gain
		}
	}
}

// applyFrameDrops deletes short random runs of samples, shifting everything
// after them earlier in time — the DAQ-side time noise of the paper. A drop
// event starting where an earlier one started replaces it. The drops are
// merged into one sorted list of dropped runs, and each lane is compacted
// in place around them.
func applyFrameDrops(sig *sigproc.Signal, cfg Config, rng *rand.Rand) *sigproc.Signal {
	if cfg.FrameDropRate <= 0 || cfg.FrameDropMax < 1 || sig.Len() == 0 {
		return sig
	}
	expected := cfg.FrameDropRate * sig.Duration()
	drops := poisson(rng, expected)
	if drops == 0 {
		return sig
	}
	n := sig.Len()
	runs := make([][2]int, 0, drops) // [start, end) of each drop, by start
	for k := 0; k < drops; k++ {
		start := rng.Intn(n)
		end := min(start+1+rng.Intn(cfg.FrameDropMax), n)
		j := 0
		for j < len(runs) && runs[j][0] < start {
			j++
		}
		if j < len(runs) && runs[j][0] == start {
			runs[j][1] = end
			continue
		}
		runs = append(runs, [2]int{})
		copy(runs[j+1:], runs[j:])
		runs[j] = [2]int{start, end}
	}
	for c, lane := range sig.Data {
		w, r := 0, 0 // write and read positions
		for _, d := range runs {
			if d[0] > r {
				w += copy(lane[w:], lane[r:d[0]])
			}
			r = max(r, d[1])
		}
		w += copy(lane[w:], lane[r:])
		sig.Data[c] = lane[:w]
	}
	return sig
}

// poisson samples a Poisson variate by Knuth's method (fine for small
// means).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
