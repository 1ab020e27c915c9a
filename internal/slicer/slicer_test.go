package slicer

import (
	"math"
	"testing"

	"nsync/internal/gcode"
)

func TestGearOutline(t *testing.T) {
	g := GearOutline(30, 18, 4)
	if len(g) != 72 {
		t.Fatalf("vertices = %d, want 72", len(g))
	}
	for i, p := range g {
		r := math.Hypot(p.X, p.Y)
		if r < 26-1e-9 || r > 30+1e-9 {
			t.Errorf("vertex %d radius %v outside [26, 30]", i, r)
		}
	}
	// Degenerate tooth count clamps.
	if got := GearOutline(10, 1, 2); len(got) != 12 {
		t.Errorf("clamped gear vertices = %d, want 12", len(got))
	}
}

func TestCircleContains(t *testing.T) {
	c := Circle(0, 0, 10, 64)
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{9, 0}, true},
		{Point{11, 0}, false},
		{Point{7, 7}, true}, // r ~ 9.9
		{Point{8, 8}, false},
	}
	for _, tt := range tests {
		if got := c.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPolygonScaleTranslate(t *testing.T) {
	p := Polygon{{1, 2}, {3, 4}}
	q := p.Scale(2).Translate(10, 20)
	if q[0] != (Point{12, 24}) || q[1] != (Point{16, 28}) {
		t.Errorf("scale+translate = %v", q)
	}
	// Original untouched.
	if p[0] != (Point{1, 2}) {
		t.Error("Scale mutated input")
	}
}

func TestOffsetInward(t *testing.T) {
	c := Circle(5, 5, 10, 128)
	in := c.OffsetInward(2)
	for _, p := range in {
		r := math.Hypot(p.X-5, p.Y-5)
		if math.Abs(r-8) > 0.05 {
			t.Fatalf("offset radius %v, want ~8", r)
		}
	}
	// Offsetting beyond the radius collapses to the centroid.
	tiny := Circle(0, 0, 1, 16).OffsetInward(5)
	for _, p := range tiny {
		if math.Hypot(p.X, p.Y) > 1e-9 {
			t.Fatalf("collapse failed: %v", p)
		}
	}
}

func TestBounds(t *testing.T) {
	p := Polygon{{-1, 2}, {5, -3}, {0, 7}}
	minX, minY, maxX, maxY := p.Bounds()
	if minX != -1 || minY != -3 || maxX != 5 || maxY != 7 {
		t.Errorf("Bounds = %v %v %v %v", minX, minY, maxX, maxY)
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{
		Outer: Circle(0, 0, 10, 64),
		Holes: []Polygon{Circle(0, 0, 3, 32)},
	}
	if !r.Contains(Point{5, 0}) {
		t.Error("annulus interior should contain (5,0)")
	}
	if r.Contains(Point{1, 0}) {
		t.Error("hole should exclude (1,0)")
	}
	if r.Contains(Point{11, 0}) {
		t.Error("outside should exclude (11,0)")
	}
}

func TestInfillLinesGeometry(t *testing.T) {
	r := Region{Outer: Polygon{{0, 0}, {10, 0}, {10, 10}, {0, 10}}}
	segs := r.InfillLines(0, 2, 0.1, 0)
	if len(segs) != 5 {
		t.Fatalf("segments = %d, want 5", len(segs))
	}
	for _, s := range segs {
		if math.Abs(s.A.Y-s.B.Y) > 1e-9 {
			t.Errorf("angle-0 segment not horizontal: %v", s)
		}
		if math.Abs(s.Length()-10) > 1e-6 {
			t.Errorf("segment length %v, want 10", s.Length())
		}
		mid := Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
		if !r.Contains(mid) {
			t.Errorf("segment midpoint %v outside region", mid)
		}
	}
}

func TestInfillLinesAvoidHoles(t *testing.T) {
	r := Region{
		Outer: Polygon{{0, 0}, {20, 0}, {20, 20}, {0, 20}},
		Holes: []Polygon{Circle(10, 10, 4, 32)},
	}
	segs := r.InfillLines(math.Pi/4, 1.5, 0.1, 0)
	if len(segs) == 0 {
		t.Fatal("no infill segments")
	}
	for _, s := range segs {
		mid := Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
		if !r.Contains(mid) {
			t.Errorf("segment midpoint %v inside hole or outside region", mid)
		}
	}
}

func TestInfillSerpentineAlternates(t *testing.T) {
	r := Region{Outer: Polygon{{0, 0}, {10, 0}, {10, 10}, {0, 10}}}
	segs := r.InfillLines(0, 2, 0.1, 0)
	// Consecutive scanlines sweep in opposite X directions.
	for i := 1; i < len(segs); i++ {
		d0 := segs[i-1].B.X - segs[i-1].A.X
		d1 := segs[i].B.X - segs[i].A.X
		if d0*d1 > 0 {
			t.Errorf("segments %d and %d sweep the same direction", i-1, i)
		}
	}
}

func TestInfillZeroSpacing(t *testing.T) {
	r := Region{Outer: Circle(0, 0, 5, 16)}
	if got := r.InfillLines(0, 0, 0.1, 0); got != nil {
		t.Errorf("zero spacing should return nil, got %d segments", len(got))
	}
}

func TestConfigValidate(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero layer height", func(c *Config) { c.LayerHeight = 0 }},
		{"short part", func(c *Config) { c.TotalHeight = 0.05 }},
		{"zero scale", func(c *Config) { c.Scale = 0 }},
		{"no perimeters", func(c *Config) { c.Perimeters = 0 }},
		{"zero line width", func(c *Config) { c.LineWidth = 0 }},
		{"bad infill", func(c *Config) { c.Infill = 0 }},
		{"zero infill spacing", func(c *Config) { c.InfillSpacing = 0 }},
		{"zero speed", func(c *Config) { c.PerimeterSpeed = 0 }},
		{"zero filament", func(c *Config) { c.FilamentArea = 0 }},
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestSliceProducesPlausibleProgram(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalHeight = 0.6 // 3 layers
	prog, err := Slice(Gear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		layers     int
		extrusions int
		travels    int
		maxE       float64
		sawHome    bool
		sawHeat    bool
	)
	lastE := 0.0
	for i := range prog.Commands {
		c := &prog.Commands[i]
		switch {
		case len(c.Comment) >= 6 && c.Comment[:6] == "LAYER:":
			layers++
		case c.Code == "G28":
			sawHome = true
		case c.Code == "M109":
			sawHeat = true
		}
		if c.IsMove() {
			if e, ok := c.Get('E'); ok && e > lastE {
				extrusions++
				lastE = e
				if e > maxE {
					maxE = e
				}
			} else if !ok {
				travels++
			}
		}
	}
	if layers != 3 {
		t.Errorf("layers = %d, want 3", layers)
	}
	if !sawHome || !sawHeat {
		t.Error("preamble missing G28 or M109")
	}
	if extrusions < 50 {
		t.Errorf("extrusion moves = %d, want >= 50", extrusions)
	}
	if travels < 10 {
		t.Errorf("travel moves = %d, want >= 10", travels)
	}
	if maxE <= 0 {
		t.Error("no filament extruded")
	}
	// E must be monotonically non-decreasing (no retraction in this slicer).
	lastE = 0
	for i := range prog.Commands {
		if e, ok := prog.Commands[i].Get('E'); ok && prog.Commands[i].IsMove() {
			if e < lastE-1e-9 {
				t.Fatalf("E went backwards at command %d", i)
			}
			lastE = e
		}
	}
}

func TestSliceMovesStayNearBed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalHeight = 0.4
	prog, err := Slice(Gear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog.Commands {
		c := &prog.Commands[i]
		if !c.IsMove() {
			continue
		}
		if x, ok := c.Get('X'); ok {
			y, _ := c.Get('Y')
			r := math.Hypot(x-cfg.CenterX, y-cfg.CenterY)
			if r > 31 && !(x == 0 && y == 0) { // park move excepted
				t.Errorf("command %d at radius %v from part center", i, r)
			}
		}
	}
}

func TestSliceScaleShrinksToolpath(t *testing.T) {
	base := DefaultConfig()
	base.TotalHeight = 0.4
	small := base
	small.Scale = 0.95

	extrusionLength := func(cfg Config) float64 {
		prog, err := Slice(Gear(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lastE float64
		for i := range prog.Commands {
			if e, ok := prog.Commands[i].Get('E'); ok && prog.Commands[i].IsMove() {
				lastE = e
			}
		}
		return lastE
	}
	e1 := extrusionLength(base)
	e2 := extrusionLength(small)
	if e2 >= e1 {
		t.Errorf("scaled-down part extrudes more: %v >= %v", e2, e1)
	}
}

func TestSliceLayerHeightChangesLayerCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalHeight = 1.2
	count := func(h float64) int {
		c := cfg
		c.LayerHeight = h
		prog, err := Slice(Gear(), c)
		if err != nil {
			t.Fatal(err)
		}
		layers := 0
		for i := range prog.Commands {
			if cm := prog.Commands[i].Comment; len(cm) >= 6 && cm[:6] == "LAYER:" {
				layers++
			}
		}
		return layers
	}
	if l02, l03 := count(0.2), count(0.3); l02 != 6 || l03 != 4 {
		t.Errorf("layers: 0.2mm -> %d (want 6), 0.3mm -> %d (want 4)", l02, l03)
	}
}

func TestSliceGridInfillDiffersFromLines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalHeight = 0.4
	lines, err := Slice(Gear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Infill = InfillGridPattern
	grid, err := Slice(Gear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lines.SerializeString() == grid.SerializeString() {
		t.Error("grid infill produced identical G-code to lines infill")
	}
}

func TestInfillPatternString(t *testing.T) {
	if InfillLinesPattern.String() != "lines" || InfillGridPattern.String() != "grid" {
		t.Error("pattern names wrong")
	}
	if InfillPattern(9).String() != "InfillPattern(9)" {
		t.Error("unknown pattern string wrong")
	}
}

func TestSliceOutputParses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalHeight = 0.2
	prog, err := Slice(Gear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := gcode.ParseString(prog.SerializeString())
	if err != nil {
		t.Fatalf("slicer output does not re-parse: %v", err)
	}
	if len(reparsed.Commands) != len(prog.Commands) {
		t.Errorf("re-parse changed command count: %d -> %d", len(prog.Commands), len(reparsed.Commands))
	}
}
