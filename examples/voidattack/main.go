// Voidattack: a closer look at detecting the paper's Void sabotage [25] —
// an attacker turns interior extrusion moves into travel moves, leaving a
// structural cavity while the printed object looks intact from outside.
//
//	go run ./examples/voidattack
//
// The example prints the discriminator's three feature series (CADHD,
// filtered h_dist, filtered v_dist) as ASCII charts for a benign process
// and for the attacked process, so you can see exactly which sub-module
// notices the sabotage and when.
package main

import (
	"fmt"
	"log"

	"nsync/internal/core"
	"nsync/internal/experiment"
	"nsync/internal/gcode"
	"nsync/internal/printer"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
	"nsync/internal/textplot"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func record(scale experiment.Scale, prog *gcode.Program, seed int64) (*sigproc.Signal, error) {
	tr, err := printer.Run(prog, printer.UM3(), printer.Options{
		Seed: seed, TraceRate: scale.TraceRate,
		InitialHotend: 205, InitialBed: 60,
	})
	if err != nil {
		return nil, err
	}
	return sensor.Acquire(tr.Recording(), sensor.ACC, scale.Sensor, seed)
}

func run() error {
	scale := experiment.CI()
	benignProg, attacks, err := scale.Programs()
	if err != nil {
		return err
	}
	voidProg := attacks["Void"]

	fmt.Println("simulating reference, benign, and void-attacked prints (UM3, ACC)...")
	ref, err := record(scale, benignProg, 1)
	if err != nil {
		return err
	}
	benign, err := record(scale, benignProg, 42)
	if err != nil {
		return err
	}
	void, err := record(scale, voidProg, 43)
	if err != nil {
		return err
	}

	det, err := core.NewDetector(ref, core.Config{
		Sync: &core.DWMSynchronizer{Params: scale.DWM["UM3"]},
		OCC:  core.OCCConfig{R: 1.0},
	})
	if err != nil {
		return err
	}

	show := func(label string, sig *sigproc.Signal) (*core.Features, error) {
		f, err := det.Features(sig)
		if err != nil {
			return nil, err
		}
		fmt.Printf("\n--- %s ---\n", label)
		fmt.Print(textplot.Line("CADHD c_disp (samples)", f.CDisp, 60, 6))
		fmt.Print(textplot.Line("filtered h_dist (samples)", f.HDist, 60, 6))
		fmt.Print(textplot.Line("filtered v_dist (correlation distance)", f.VDist, 60, 6))
		return f, nil
	}
	bf, err := show("benign process", benign)
	if err != nil {
		return err
	}
	vf, err := show("void-attacked process", void)
	if err != nil {
		return err
	}

	// Train on a few more benign runs and classify both.
	var train []*sigproc.Signal
	for seed := int64(2); seed <= 6; seed++ {
		s, err := record(scale, benignProg, seed)
		if err != nil {
			return err
		}
		train = append(train, s)
	}
	if err := det.Train(train); err != nil {
		return err
	}
	th, err := det.Thresholds()
	if err != nil {
		return err
	}
	fmt.Printf("\nthresholds: c_c=%.0f h_c=%.0f v_c=%.3f\n", th.CC, th.HC, th.VC)
	fmt.Printf("benign verdict: %+v\n", th.Detect(bf))
	fmt.Printf("void   verdict: %+v\n", th.Detect(vf))

	// How much material did the attack remove?
	missing := finalE(benignProg) - finalE(voidProg)
	fmt.Printf("\nthe void removed %.1f mm of filament (%.1f%% of the part) — enough to\n",
		missing, 100*missing/finalE(benignProg))
	fmt.Println("compromise structural integrity while passing a visual inspection.")
	return nil
}

func finalE(p *gcode.Program) float64 {
	var e float64
	for i := range p.Commands {
		if v, ok := p.Commands[i].Get('E'); ok && p.Commands[i].IsMove() {
			e = v
		}
	}
	return e
}
