package printer

import "math"

// move is one planned linear motion segment.
type move struct {
	start, target Vec3
	dir           Vec3    // unit direction (zero for extrude-only moves)
	dist          float64 // mm of XYZ motion
	eStart, eEnd  float64 // extruder positions
	feed          float64 // commanded cruise feed, mm/s
	vIn, vOut     float64 // junction velocities after planning, mm/s
	cmdIndex      int     // originating command, for diagnostics
	dwell         float64 // seconds; > 0 for pure dwells (G4, gaps)
}

// trapezoid is a move's solved velocity profile: phase durations and the
// achieved peak velocity.
type trapezoid struct {
	tAcc, tCruise, tDec, vPeak float64
}

// profile solves the trapezoidal velocity profile of a move: accelerate
// from vIn to vPeak, cruise, decelerate to vOut, covering dist with
// acceleration a.
func (m *move) profile(a float64) trapezoid {
	if m.dist <= 0 || a <= 0 {
		return trapezoid{}
	}
	v := m.feed
	vIn, vOut := m.vIn, m.vOut
	// Peak velocity limited by distance: the triangle profile peak.
	vTri := math.Sqrt((2*a*m.dist + vIn*vIn + vOut*vOut) / 2)
	vPeak := math.Min(v, vTri)
	vPeak = math.Max(vPeak, math.Max(vIn, vOut)) // numerical safety
	p := trapezoid{tAcc: (vPeak - vIn) / a, tDec: (vPeak - vOut) / a, vPeak: vPeak}
	dAcc := (vIn + vPeak) / 2 * p.tAcc
	dDec := (vOut + vPeak) / 2 * p.tDec
	dCruise := m.dist - dAcc - dDec
	if dCruise < 0 {
		dCruise = 0
	}
	if vPeak > 0 {
		p.tCruise = dCruise / vPeak
	}
	return p
}

// duration returns the total move time with acceleration a.
func (m *move) duration(a float64) float64 {
	if m.dwell > 0 {
		return m.dwell
	}
	if m.dist <= 0 {
		// Extrude-only move: time = E length / feed.
		eDist := math.Abs(m.eEnd - m.eStart)
		if eDist > 0 && m.feed > 0 {
			return eDist / m.feed
		}
		return 0
	}
	p := m.profile(a)
	return p.tAcc + p.tCruise + p.tDec
}

// at evaluates the move, whose profile with acceleration a is p, at local
// time t (0 <= t <= duration): distance travelled along the path and scalar
// speed.
func (m *move) at(t, a float64, p trapezoid) (s, v float64) {
	if m.dwell > 0 || m.dist <= 0 {
		return 0, 0
	}
	tAcc, tCruise, tDec, vPeak := p.tAcc, p.tCruise, p.tDec, p.vPeak
	dAcc := (m.vIn + vPeak) / 2 * tAcc
	switch {
	case t <= 0:
		return 0, m.vIn
	case t < tAcc:
		return m.vIn*t + a*t*t/2, m.vIn + a*t
	case t < tAcc+tCruise:
		return dAcc + vPeak*(t-tAcc), vPeak
	case t < tAcc+tCruise+tDec:
		td := t - tAcc - tCruise
		return dAcc + vPeak*tCruise + vPeak*td - a*td*td/2, vPeak - a*td
	default:
		return m.dist, m.vOut
	}
}

// planJunctions runs the look-ahead pass over a move list: junction
// velocities are set from the angle between consecutive segments, then a
// forward and a backward pass enforce that acceleration limits can actually
// realize them. This mirrors what Marlin-class firmware does and is the
// mechanism that makes per-move timing depend on neighboring moves.
func planJunctions(moves []move, accel float64) {
	n := len(moves)
	for i := 0; i < n; i++ {
		if i == 0 || moves[i].dist <= 0 {
			moves[i].vIn = 0
			continue
		}
		prev := &moves[i-1]
		if prev.dist <= 0 || prev.dwell > 0 || moves[i].dwell > 0 {
			moves[i].vIn = 0
			continue
		}
		cosTheta := prev.dir.Dot(moves[i].dir)
		if cosTheta < 0 {
			cosTheta = 0
		}
		vj := math.Min(prev.feed, moves[i].feed) * cosTheta
		moves[i].vIn = vj
	}
	for i := 0; i < n; i++ {
		if i+1 < n {
			moves[i].vOut = moves[i+1].vIn
		} else {
			moves[i].vOut = 0
		}
	}
	// Forward pass: vOut cannot exceed what acceleration allows from vIn.
	for i := 0; i < n; i++ {
		m := &moves[i]
		if m.dist <= 0 {
			continue
		}
		maxOut := math.Sqrt(m.vIn*m.vIn + 2*accel*m.dist)
		if m.vOut > maxOut {
			m.vOut = maxOut
			if i+1 < n {
				moves[i+1].vIn = maxOut
			}
		}
	}
	// Backward pass: vIn cannot exceed what deceleration allows to vOut.
	for i := n - 1; i >= 0; i-- {
		m := &moves[i]
		if m.dist <= 0 {
			continue
		}
		maxIn := math.Sqrt(m.vOut*m.vOut + 2*accel*m.dist)
		if m.vIn > maxIn {
			m.vIn = maxIn
			if i > 0 {
				moves[i-1].vOut = maxIn
			}
		}
		// Junction speeds can never exceed the cruise feed.
		m.vIn = math.Min(m.vIn, m.feed)
		m.vOut = math.Min(m.vOut, m.feed)
	}
}
