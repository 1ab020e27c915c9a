// Package slicer generates layered FDM G-code for a parametric gear model,
// standing in for the Cura/MatterSlice + 60 mm gear workflow of the paper's
// evaluation (Section VIII-A). It supports the slicer-level manipulations of
// Table I: infill pattern changes (InfillGrid) and layer-height changes
// (Layer0.3) are produced by re-slicing with modified settings.
package slicer

import (
	"math"
	"sort"
)

// Point is a 2-D point in millimeters.
type Point struct {
	X, Y float64
}

// Polygon is a closed 2-D outline; the last vertex connects back to the
// first implicitly.
type Polygon []Point

// GearOutline builds the outline of an involute-ish spur gear approximated
// by trapezoidal teeth: good enough geometry for toolpath generation and it
// reacts to scaling exactly like a real model would.
//
// outerRadius is the tip radius (mm); teeth is the tooth count; toothDepth
// is the radial depth of each tooth (mm).
func GearOutline(outerRadius float64, teeth int, toothDepth float64) Polygon {
	if teeth < 3 {
		teeth = 3
	}
	root := outerRadius - toothDepth
	var poly Polygon
	// Four arc points per tooth: root-start, tip-start, tip-end, root-end.
	for t := 0; t < teeth; t++ {
		base := 2 * math.Pi * float64(t) / float64(teeth)
		pitch := 2 * math.Pi / float64(teeth)
		angles := []struct {
			frac float64
			r    float64
		}{
			{0.0, root},
			{0.25, outerRadius},
			{0.5, outerRadius},
			{0.75, root},
		}
		for _, a := range angles {
			ang := base + a.frac*pitch
			poly = append(poly, Point{a.r * math.Cos(ang), a.r * math.Sin(ang)})
		}
	}
	return poly
}

// Circle approximates a circle with n segments.
func Circle(cx, cy, r float64, n int) Polygon {
	if n < 3 {
		n = 3
	}
	poly := make(Polygon, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		poly[i] = Point{cx + r*math.Cos(ang), cy + r*math.Sin(ang)}
	}
	return poly
}

// Scale returns the polygon scaled about the origin.
func (p Polygon) Scale(f float64) Polygon {
	out := make(Polygon, len(p))
	for i, pt := range p {
		out[i] = Point{pt.X * f, pt.Y * f}
	}
	return out
}

// Translate returns the polygon shifted by (dx, dy).
func (p Polygon) Translate(dx, dy float64) Polygon {
	out := make(Polygon, len(p))
	for i, pt := range p {
		out[i] = Point{pt.X + dx, pt.Y + dy}
	}
	return out
}

// Centroid returns the vertex centroid.
func (p Polygon) Centroid() Point {
	var c Point
	if len(p) == 0 {
		return c
	}
	for _, pt := range p {
		c.X += pt.X
		c.Y += pt.Y
	}
	c.X /= float64(len(p))
	c.Y /= float64(len(p))
	return c
}

// OffsetInward shrinks the polygon toward its centroid by roughly dist mm.
// This radial approximation is adequate for mostly-convex outlines such as
// gears, and avoids a full polygon-offsetting library.
func (p Polygon) OffsetInward(dist float64) Polygon {
	c := p.Centroid()
	out := make(Polygon, len(p))
	for i, pt := range p {
		dx, dy := pt.X-c.X, pt.Y-c.Y
		r := math.Hypot(dx, dy)
		if r <= dist {
			out[i] = c
			continue
		}
		f := (r - dist) / r
		out[i] = Point{c.X + dx*f, c.Y + dy*f}
	}
	return out
}

// Bounds returns the axis-aligned bounding box.
func (p Polygon) Bounds() (minX, minY, maxX, maxY float64) {
	if len(p) == 0 {
		return 0, 0, 0, 0
	}
	minX, maxX = p[0].X, p[0].X
	minY, maxY = p[0].Y, p[0].Y
	for _, pt := range p[1:] {
		minX = math.Min(minX, pt.X)
		maxX = math.Max(maxX, pt.X)
		minY = math.Min(minY, pt.Y)
		maxY = math.Max(maxY, pt.Y)
	}
	return minX, minY, maxX, maxY
}

// Contains reports whether the point is inside the polygon (even-odd rule).
func (p Polygon) Contains(pt Point) bool {
	inside := false
	n := len(p)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		pi, pj := p[i], p[j]
		if (pi.Y > pt.Y) != (pj.Y > pt.Y) {
			xCross := (pj.X-pi.X)*(pt.Y-pi.Y)/(pj.Y-pi.Y) + pi.X
			if pt.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// Segment is a 2-D line segment.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 {
	return math.Hypot(s.B.X-s.A.X, s.B.Y-s.A.Y)
}

// Region is an area bounded by an outer polygon minus zero or more holes.
type Region struct {
	Outer Polygon
	Holes []Polygon
}

// Contains reports whether a point lies in the region (inside the outer
// polygon and outside every hole).
func (r Region) Contains(pt Point) bool {
	if !r.Outer.Contains(pt) {
		return false
	}
	for _, h := range r.Holes {
		if h.Contains(pt) {
			return false
		}
	}
	return true
}

// clipLine intersects an infinite scanline (given in a rotated frame) with
// the region and returns the interior sub-segments. The scanline is the set
// of points whose rotated-Y equals c; points are returned sorted by
// rotated-X.
//
// angle is the infill direction in radians: the scanline runs along the
// direction (cos angle, sin angle).
func (r Region) clipLine(angle, c float64) []Segment {
	// Rotate the region by -angle so the scanline becomes horizontal y=c.
	cosA, sinA := math.Cos(angle), math.Sin(angle)
	rot := func(p Point) Point {
		return Point{p.X*cosA + p.Y*sinA, -p.X*sinA + p.Y*cosA}
	}
	unrot := func(p Point) Point {
		return Point{p.X*cosA - p.Y*sinA, p.X*sinA + p.Y*cosA}
	}
	var xs []float64
	collect := func(poly Polygon) {
		n := len(poly)
		for i := 0; i < n; i++ {
			a := rot(poly[i])
			b := rot(poly[(i+1)%n])
			if (a.Y > c) == (b.Y > c) {
				continue
			}
			t := (c - a.Y) / (b.Y - a.Y)
			xs = append(xs, a.X+t*(b.X-a.X))
		}
	}
	collect(r.Outer)
	for _, h := range r.Holes {
		collect(h)
	}
	sort.Float64s(xs)
	var segs []Segment
	for i := 0; i+1 < len(xs); i++ {
		mid := Point{(xs[i] + xs[i+1]) / 2, c}
		if r.Contains(unrot(mid)) {
			segs = append(segs, Segment{unrot(Point{xs[i], c}), unrot(Point{xs[i+1], c})})
		}
	}
	return segs
}

// InfillLines fills the region with parallel lines at the given angle and
// spacing, alternating sweep direction for a serpentine toolpath. Segments
// shorter than minLen are dropped. phase shifts the scanline positions
// (modulo spacing), letting callers vary line placement per layer.
func (r Region) InfillLines(angle, spacing, minLen, phase float64) []Segment {
	if spacing <= 0 {
		return nil
	}
	// Project the bounding box onto the rotated Y axis to find the scan range.
	minX, minY, maxX, maxY := r.Outer.Bounds()
	corners := []Point{{minX, minY}, {maxX, minY}, {minX, maxY}, {maxX, maxY}}
	sinA, cosA := math.Sin(angle), math.Cos(angle)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range corners {
		y := -p.X*sinA + p.Y*cosA
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	var out []Segment
	flip := false
	start := lo + spacing/2 + math.Mod(phase, spacing)
	for c := start; c < hi; c += spacing {
		segs := r.clipLine(angle, c)
		if flip {
			for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
				segs[i], segs[j] = segs[j], segs[i]
			}
			for i := range segs {
				segs[i].A, segs[i].B = segs[i].B, segs[i].A
			}
		}
		for _, s := range segs {
			if s.Length() >= minLen {
				out = append(out, s)
			}
		}
		flip = !flip
	}
	return out
}
