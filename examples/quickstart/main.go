// Quickstart: the minimal NSYNC workflow — record a reference print, train
// on a few benign repetitions, then classify new prints.
//
//	go run ./examples/quickstart
//
// Everything runs against the built-in printer simulator, so no hardware is
// needed: the example slices the paper's gear model, "prints" it several
// times on the simulated Ultimaker 3, captures the accelerometer side
// channel, and feeds the recordings through the public API.
package main

import (
	"fmt"
	"log"

	"nsync"
	"nsync/internal/experiment"
	"nsync/internal/gcode"
	"nsync/internal/printer"
	"nsync/internal/sensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// record simulates one print of prog and returns its accelerometer signal.
func record(scale experiment.Scale, prog *gcode.Program, seed int64) (*nsync.Signal, error) {
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
	benign, attacks, err := scale.Programs()
	if err != nil {
		return err
	}

	fmt.Println("recording reference print...")
	ref, err := record(scale, benign, 1)
	if err != nil {
		return err
	}

	// NSYNC with the paper's UM3 DWM parameters (Table IV) and a generous
	// OCC margin for the small training set.
	det, err := nsync.NewDWMDetector(ref, scale.DWM["UM3"], 1.0)
	if err != nil {
		return err
	}

	fmt.Println("recording 4 benign training prints...")
	var train []*nsync.Signal
	for seed := int64(2); seed <= 5; seed++ {
		s, err := record(scale, benign, seed)
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
	fmt.Printf("learned thresholds: c_c=%.0f h_c=%.0f v_c=%.3f\n\n", th.CC, th.HC, th.VC)

	// A fresh benign print must pass.
	obs, err := record(scale, benign, 100)
	if err != nil {
		return err
	}
	v, err := det.Classify(obs)
	if err != nil {
		return err
	}
	fmt.Printf("benign print:     intrusion=%v\n", v.Intrusion)

	// Every Table I attack must be caught.
	for _, name := range experiment.AttackNames {
		obs, err := record(scale, attacks[name], 200)
		if err != nil {
			return err
		}
		v, err := det.Classify(obs)
		if err != nil {
			return err
		}
		status := "MISSED"
		if v.Intrusion {
			status = fmt.Sprintf("detected at t=%.0fs via %v", v.FirstTime, v.Triggered)
		}
		fmt.Printf("%-12s print: %s\n", name, status)
	}
	return nil
}
