package gcode

import (
	"math"
	"testing"
)

const benignSrc = `G28
G92 E0
G1 X10 Y10 Z0.2 F1800 E1
G1 X20 Y10 E2 F1500
G0 X0 Y0 F6000
G1 X5 Y5 E3
G1 Z0.4 F900
G1 X10 Y5 E4
`

func TestSpeedAttack(t *testing.T) {
	p := mustParse(t, benignSrc)
	out, err := (&SpeedAttack{Factor: 0.95}).Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	// Only F words change; everything else identical.
	if len(out.Commands) != len(p.Commands) {
		t.Fatalf("command count changed: %d -> %d", len(p.Commands), len(out.Commands))
	}
	for i := range p.Commands {
		orig, mod := p.Commands[i], out.Commands[i]
		for _, letter := range []byte{'X', 'Y', 'Z', 'E'} {
			ov, ook := orig.Get(letter)
			mv, mok := mod.Get(letter)
			if ook != mok || (ook && ov != mv) {
				t.Errorf("cmd %d: %c changed", i, letter)
			}
		}
		if ov, ok := orig.Get('F'); ok {
			if mv, _ := mod.Get('F'); math.Abs(mv-ov*0.95) > 1e-9 {
				t.Errorf("cmd %d: F = %v, want %v", i, mv, ov*0.95)
			}
		}
	}
	// Original untouched.
	if v, _ := p.Commands[2].Get('F'); v != 1800 {
		t.Error("attack mutated the input program")
	}
}

func TestSpeedAttackValidation(t *testing.T) {
	if _, err := (&SpeedAttack{Factor: 0}).Apply(&Program{}); err == nil {
		t.Error("zero factor: want error")
	}
	if got := (&SpeedAttack{Factor: 0.95}).Name(); got != "Speed0.95" {
		t.Errorf("Name = %q", got)
	}
}

func TestScaleAttack(t *testing.T) {
	p := mustParse(t, benignSrc)
	out, err := (&ScaleAttack{Factor: 0.95}).Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Commands {
		orig, mod := p.Commands[i], out.Commands[i]
		if !orig.IsMove() && orig.Code != "G92" {
			continue
		}
		for _, letter := range []byte{'X', 'Y', 'Z', 'E'} {
			if ov, ok := orig.Get(letter); ok {
				mv, _ := mod.Get(letter)
				if math.Abs(mv-ov*0.95) > 1e-9 {
					t.Errorf("cmd %d: %c = %v, want %v", i, letter, mv, ov*0.95)
				}
			}
		}
		if ov, ok := orig.Get('F'); ok {
			if mv, _ := mod.Get('F'); mv != ov {
				t.Errorf("cmd %d: F changed by scale attack", i)
			}
		}
	}
	if got := (&ScaleAttack{Factor: 0.95}).Name(); got != "Scale0.95" {
		t.Errorf("Name = %q", got)
	}
	if _, err := (&ScaleAttack{Factor: -1}).Apply(p); err == nil {
		t.Error("negative factor: want error")
	}
}

func TestVoidAttack(t *testing.T) {
	// One long extrusion crossing a circle of radius 2 at (5, 5).
	src := `G92 E0
G1 X0 Y5 Z0.2 F1200 E0
G1 X10 Y5 E10
G1 X10 Y10 E15
`
	p := mustParse(t, src)
	atk := &VoidAttack{CenterX: 5, CenterY: 5, Radius: 2, ZMin: 0, ZMax: 1}
	out, err := atk.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	// The crossing move is split into extrude-to-3, travel-to-7, extrude-to-10.
	var moves []Command
	for i := range out.Commands {
		if out.Commands[i].IsMove() {
			moves = append(moves, out.Commands[i])
		}
	}
	if len(moves) != 5 {
		t.Fatalf("moves = %d, want 5: %v", len(moves), out.SerializeString())
	}
	seg1, seg2, seg3 := moves[1], moves[2], moves[3]
	if x, _ := seg1.Get('X'); math.Abs(x-3) > 1e-9 {
		t.Errorf("first split X = %v, want 3", x)
	}
	if e, _ := seg1.Get('E'); math.Abs(e-3) > 1e-9 {
		t.Errorf("first split E = %v, want 3", e)
	}
	if seg2.Has('E') {
		t.Error("void stretch must be a travel move")
	}
	if x, _ := seg2.Get('X'); math.Abs(x-7) > 1e-9 {
		t.Errorf("void exit X = %v, want 7", x)
	}
	// Final segment extrudes the remaining 3 mm of path: E = 10 - deficit(4) = 6.
	if e, _ := seg3.Get('E'); math.Abs(e-6) > 1e-9 {
		t.Errorf("resume E = %v, want 6", e)
	}
	// The later move's E also carries the deficit: 15 - 4 = 11.
	if e, _ := moves[4].Get('E'); math.Abs(e-11) > 1e-9 {
		t.Errorf("downstream E = %v, want 11", e)
	}
	if atk.Name() != "Void" {
		t.Errorf("Name = %q", atk.Name())
	}
	if _, err := (&VoidAttack{}).Apply(p); err == nil {
		t.Error("zero radius: want error")
	}
}

func TestVoidAttackOutsideZRange(t *testing.T) {
	src := `G92 E0
G1 X0 Y5 Z5 F1200 E0
G1 X10 Y5 E10
`
	p := mustParse(t, src)
	atk := &VoidAttack{CenterX: 5, CenterY: 5, Radius: 2, ZMin: 0, ZMax: 1}
	out, err := atk.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.SerializeString(); got != p.SerializeString() {
		t.Errorf("move outside Z range was modified:\n%s", got)
	}
}

func TestVoidAttackMissesCircle(t *testing.T) {
	src := `G92 E0
G1 X0 Y20 Z0.2 F1200 E0
G1 X10 Y20 E10
`
	p := mustParse(t, src)
	atk := &VoidAttack{CenterX: 5, CenterY: 5, Radius: 2, ZMin: 0, ZMax: 1}
	out, err := atk.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.SerializeString(); got != p.SerializeString() {
		t.Errorf("non-crossing move was modified:\n%s", got)
	}
}

func TestVoidAttackReducesTotalExtrusion(t *testing.T) {
	p := mustParse(t, benignSrc)
	atk := &VoidAttack{CenterX: 10, CenterY: 7, Radius: 4, ZMin: 0, ZMax: 1}
	out, err := atk.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	finalE := func(prog *Program) float64 {
		var e float64
		for i := range prog.Commands {
			if v, ok := prog.Commands[i].Get('E'); ok && prog.Commands[i].IsMove() {
				e = v
			}
		}
		return e
	}
	if finalE(out) >= finalE(p) {
		t.Errorf("void did not reduce extrusion: %v vs %v", finalE(out), finalE(p))
	}
}
