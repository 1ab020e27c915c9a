package printer

import (
	"fmt"
	"math"
)

// Trace is the ground-truth physical state of a simulated print, sampled at
// a fixed master rate. Sensor models derive side-channel signals from it.
// Storage is structure-of-arrays so sensors can stream over single fields.
type Trace struct {
	// Rate is the master sampling rate in Hz.
	Rate float64

	// Tool position (mm) and velocity (mm/s).
	X, Y, Z    []float64
	VX, VY, VZ []float64

	// MotorV holds actuator velocities (mm/s) per motor. For a Cartesian
	// machine these equal the axis velocities; for a delta they are the
	// carriage velocities.
	MotorV [3][]float64

	// MotorP holds actuator positions (mm) per motor. Stepper vibration and
	// acoustic tones are locked to actuator position (steps happen at fixed
	// positions along the path), which is what makes raw side-channel
	// waveforms repeatable across runs up to time noise.
	MotorP [3][]float64

	// E is the extruder position (mm of filament).
	E []float64

	// EVel is the extruder feed velocity (mm of filament per second).
	EVel []float64

	// Fan is the part-cooling fan duty in [0, 1].
	Fan []float64

	// Hotend and Bed are heater temperatures (Celsius); HotendOn and BedOn
	// are the bang-bang heater states (0 or 1).
	Hotend, Bed     []float64
	HotendOn, BedOn []float64

	// Layer is the zero-based layer index per sample (-1 before the first
	// layer).
	Layer []int

	// LayerStart records the start time (s) of each layer.
	LayerStart []float64

	// Events annotate command-level milestones (heat-wait done, homing
	// done) with their timestamps, for diagnostics.
	Events []Event
}

// Event is a timestamped annotation in a trace.
type Event struct {
	T    float64
	Kind string
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.X) }

// Duration returns the trace length in seconds.
func (tr *Trace) Duration() float64 {
	if tr.Rate <= 0 {
		return 0
	}
	return float64(tr.Len()) / tr.Rate
}

// floatFields points at every per-sample float field of the trace.
func (tr *Trace) floatFields() [19]*[]float64 {
	return [...]*[]float64{
		&tr.X, &tr.Y, &tr.Z, &tr.VX, &tr.VY, &tr.VZ,
		&tr.MotorV[0], &tr.MotorV[1], &tr.MotorV[2],
		&tr.MotorP[0], &tr.MotorP[1], &tr.MotorP[2],
		&tr.E, &tr.EVel, &tr.Fan, &tr.Hotend, &tr.Bed, &tr.HotendOn, &tr.BedOn,
	}
}

// reserve extends every per-sample field by k slots and returns the index
// of the first. The fields share one capacity and grow together, at least
// doubling, so a run copies each sample a bounded number of times. The
// caller writes every field of every reserved slot.
func (tr *Trace) reserve(k int) int {
	i := tr.Len()
	n := i + k
	if n > cap(tr.X) {
		c := max(2*cap(tr.X), n)
		for _, f := range tr.floatFields() {
			*f = append(make([]float64, 0, c), *f...)
		}
		tr.Layer = append(make([]int, 0, c), tr.Layer...)
	}
	for _, f := range tr.floatFields() {
		*f = (*f)[:n]
	}
	tr.Layer = tr.Layer[:n]
	return i
}

// A Cursor is one time located on a trace's sample grid: the sample at or
// before it and the weight of the next. Sensor models running faster than
// the master rate read every field they need at a time through one Cursor,
// so the time is located once.
type Cursor struct {
	i    int
	frac float64
	edge bool // at or before the first sample, or at or past the last
}

// At locates time t (s) on the trace's sample grid.
func (tr *Trace) At(t float64) Cursor {
	pos := t * tr.Rate
	if pos <= 0 {
		return Cursor{edge: true}
	}
	i := int(pos)
	if n := tr.Len(); i >= n-1 {
		return Cursor{i: n - 1, edge: true}
	}
	return Cursor{i: i, frac: pos - float64(i)}
}

// Of linearly interpolates a field of the trace at the cursor. Before the
// first sample it reads the first, past the last the last, and an empty
// field reads 0.
func (c Cursor) Of(field []float64) float64 {
	if len(field) == 0 {
		return 0
	}
	if c.edge {
		return field[c.i]
	}
	return field[c.i]*(1-c.frac) + field[c.i+1]*c.frac
}

// Validate performs internal consistency checks, mainly for tests.
func (tr *Trace) Validate() error {
	n := tr.Len()
	same := func(name string, l int) error {
		if l != n {
			return fmt.Errorf("printer: trace field %s has %d samples, want %d", name, l, n)
		}
		return nil
	}
	checks := []struct {
		name string
		l    int
	}{
		{"Y", len(tr.Y)}, {"Z", len(tr.Z)},
		{"VX", len(tr.VX)}, {"VY", len(tr.VY)}, {"VZ", len(tr.VZ)},
		{"M0", len(tr.MotorV[0])}, {"M1", len(tr.MotorV[1])}, {"M2", len(tr.MotorV[2])},
		{"MP0", len(tr.MotorP[0])}, {"MP1", len(tr.MotorP[1])}, {"MP2", len(tr.MotorP[2])},
		{"E", len(tr.E)}, {"EVel", len(tr.EVel)}, {"Fan", len(tr.Fan)},
		{"Hotend", len(tr.Hotend)}, {"Bed", len(tr.Bed)},
		{"HotendOn", len(tr.HotendOn)}, {"BedOn", len(tr.BedOn)},
		{"Layer", len(tr.Layer)},
	}
	for _, c := range checks {
		if err := same(c.name, c.l); err != nil {
			return err
		}
	}
	if n > 0 && tr.Rate <= 0 {
		return fmt.Errorf("printer: non-positive trace rate %v", tr.Rate)
	}
	for i := 1; i < len(tr.LayerStart); i++ {
		if tr.LayerStart[i] < tr.LayerStart[i-1] {
			return fmt.Errorf("printer: layer %d starts before layer %d", i, i-1)
		}
	}
	for _, v := range tr.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("printer: non-finite position in trace")
		}
	}
	return nil
}

// Recording returns the part of the trace a side-channel recording covers,
// re-anchored to start at 0: everything from the end of the heat-up
// preamble (the last "hotend-ready" event) on. The paper's IDS aligns
// observed and reference signals "at the beginning" of the printing
// process; because heat-up waits have random durations, recordings are
// anchored at the end of the preamble rather than at power-on. A trace
// without the event is recorded whole.
func (tr *Trace) Recording() *Trace {
	if ready := tr.eventTime("hotend-ready"); ready > 0 {
		return tr.trimBefore(ready)
	}
	return tr
}

// trimBefore returns a view of the trace with everything before time t
// removed, re-anchoring timestamps to the new origin. The view's samples
// share the trace's storage; layer starts and events that fall before t
// are dropped.
func (tr *Trace) trimBefore(t float64) *Trace {
	cut := int(t * tr.Rate)
	if cut <= 0 {
		return tr
	}
	if cut > tr.Len() {
		cut = tr.Len()
	}
	out := &Trace{Rate: tr.Rate, Layer: tr.Layer[cut:]}
	dst := out.floatFields()
	for k, f := range tr.floatFields() {
		*dst[k] = (*f)[cut:]
	}
	for _, ls := range tr.LayerStart {
		if ls >= t {
			out.LayerStart = append(out.LayerStart, ls-t)
		}
	}
	for _, ev := range tr.Events {
		if ev.T >= t {
			out.Events = append(out.Events, Event{ev.T - t, ev.Kind})
		}
	}
	return out
}

// eventTime returns the time of the last event of the given kind, or -1.
func (tr *Trace) eventTime(kind string) float64 {
	t := -1.0
	for _, ev := range tr.Events {
		if ev.Kind == kind {
			t = ev.T
		}
	}
	return t
}
