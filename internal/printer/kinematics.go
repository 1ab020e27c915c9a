// Package printer implements a kinematic FDM printer simulator: a G-code
// interpreter, a look-ahead trapezoidal motion planner, Cartesian and delta
// kinematics, a bang-bang thermal model, and — centrally for the paper — a
// time-noise model (per-instruction duration jitter, random inter-command
// gaps, thermal delays) that makes repeated executions of the same program
// drift apart in time exactly as Fig. 1 of the paper shows.
package printer

import (
	"errors"
	"fmt"
	"math"
)

// Vec3 is a position or velocity in machine space (mm or mm/s).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Mul returns v scaled by f.
func (v Vec3) Mul(f float64) Vec3 { return Vec3{v.X * f, v.Y * f, v.Z * f} }

// Dot returns the inner product.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Kinematics maps tool positions to actuator (motor) coordinates. The
// actuator trajectory is what the physical side channels leak: magnetic and
// acoustic emissions follow motor motion, not tool motion, which is why a
// delta printer sounds completely different from a Cartesian one running
// the same part.
type Kinematics interface {
	// Actuators returns the three actuator coordinates for a tool position.
	Actuators(p Vec3) ([3]float64, error)
	// Name identifies the kinematics ("cartesian", "delta").
	Name() string
}

// Cartesian kinematics: actuators are the X, Y, Z axes directly (Ultimaker
// 3 is a Cartesian bot with an XY gantry).
type Cartesian struct{}

var _ Kinematics = Cartesian{}

// Name implements Kinematics.
func (Cartesian) Name() string { return "cartesian" }

// Actuators implements Kinematics.
func (Cartesian) Actuators(p Vec3) ([3]float64, error) {
	return [3]float64{p.X, p.Y, p.Z}, nil
}

// Delta kinematics: three vertical towers spaced 120 degrees apart on a
// circle of radius TowerRadius carry carriages linked to the effector by
// arms of length ArmLength (SeeMeCNC Rostock Max V3 is a delta bot). The
// carriage height for tower i is
//
//	c_i = z + sqrt(L^2 - |xy - tower_i|^2),
//
// so even a flat XY move makes all three motors accelerate nonlinearly.
type Delta struct {
	// ArmLength L in mm.
	ArmLength float64
	// TowerRadius in mm.
	TowerRadius float64
}

var _ Kinematics = Delta{}

// Name implements Kinematics.
func (Delta) Name() string { return "delta" }

// deltaTowers holds each delta tower's direction from the centre as
// (cos, sin): 120 degrees apart, the first at 90 degrees.
var deltaTowers = func() (t [3][2]float64) {
	for i := range t {
		ang := 2*math.Pi*float64(i)/3 + math.Pi/2
		t[i] = [2]float64{math.Cos(ang), math.Sin(ang)}
	}
	return t
}()

// errUnreachable reports a tool position out of some delta arm's reach.
var errUnreachable = errors.New("printer: position unreachable by a delta tower")

// Actuators implements Kinematics.
func (d Delta) Actuators(p Vec3) ([3]float64, error) {
	var out [3]float64
	for i, u := range deltaTowers {
		tx := d.TowerRadius * u[0]
		ty := d.TowerRadius * u[1]
		dx, dy := p.X-tx, p.Y-ty
		h := d.ArmLength*d.ArmLength - dx*dx - dy*dy
		if h < 0 {
			return out, errUnreachable
		}
		out[i] = p.Z + math.Sqrt(h)
	}
	return out, nil
}

// ForwardDelta recovers the tool position from carriage heights by solving
// the three-sphere intersection. It exists to test that Actuators is a
// proper inverse; the simulator itself only needs the inverse direction.
func (d Delta) ForwardDelta(carriages [3]float64) (Vec3, error) {
	// Sphere centers: (tower_i, c_i) with radius L. Classic trilateration.
	type sph struct{ x, y, z float64 }
	var s [3]sph
	for i := 0; i < 3; i++ {
		ang := 2*math.Pi*float64(i)/3 + math.Pi/2
		s[i] = sph{d.TowerRadius * math.Cos(ang), d.TowerRadius * math.Sin(ang), carriages[i]}
	}
	// Subtract sphere 0 from spheres 1, 2 to get two linear equations in
	// x, y, z.
	r2 := func(p sph) float64 { return p.x*p.x + p.y*p.y + p.z*p.z }
	a1 := 2 * (s[1].x - s[0].x)
	b1 := 2 * (s[1].y - s[0].y)
	c1 := 2 * (s[1].z - s[0].z)
	d1 := r2(s[1]) - r2(s[0])
	a2 := 2 * (s[2].x - s[0].x)
	b2 := 2 * (s[2].y - s[0].y)
	c2 := 2 * (s[2].z - s[0].z)
	d2 := r2(s[2]) - r2(s[0])
	// Express x and y as linear functions of z: x = px + qx*z, y = py + qy*z.
	det := a1*b2 - a2*b1
	if math.Abs(det) < 1e-12 {
		return Vec3{}, fmt.Errorf("printer: degenerate delta configuration")
	}
	px := (d1*b2 - d2*b1) / det
	qx := -(c1*b2 - c2*b1) / det
	py := (a1*d2 - a2*d1) / det
	qy := -(a1*c2 - a2*c1) / det
	// Substitute into sphere 0: (x-x0)^2 + (y-y0)^2 + (z-z0)^2 = L^2.
	ax := px - s[0].x
	ay := py - s[0].y
	qa := qx*qx + qy*qy + 1
	qb := 2 * (ax*qx + ay*qy - s[0].z)
	qc := ax*ax + ay*ay + s[0].z*s[0].z - d.ArmLength*d.ArmLength
	disc := qb*qb - 4*qa*qc
	if disc < 0 {
		return Vec3{}, fmt.Errorf("printer: no delta solution (disc %v)", disc)
	}
	// The effector is below the carriages: take the smaller z root.
	z := (-qb - math.Sqrt(disc)) / (2 * qa)
	return Vec3{px + qx*z, py + qy*z, z}, nil
}
