// Realtime: an air-gapped monitoring deployment in miniature. A simulated
// printer runs a (firmware-compromised) print while a streaming NSYNC
// monitor consumes the side-channel samples as they arrive, raising the
// alarm mid-print — the deployment model of the paper's threat model
// (Fig. 3), where the IDS "automatically stops the printing process if
// necessary".
//
//	go run ./examples/realtime
//
// The firmware attack slows every move by 5% starting at half height, the
// kind of sabotage benign G-code cannot reveal.
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

func record(scale experiment.Scale, prog *gcode.Program, seed int64, fw printer.FirmwareHook) (*nsync.Signal, error) {
	tr, err := printer.Run(prog, printer.UM3(), printer.Options{
		Seed: seed, TraceRate: scale.TraceRate,
		InitialHotend: 205, InitialBed: 60,
		Firmware: fw,
	})
	if err != nil {
		return nil, err
	}
	return sensor.Acquire(tr.Recording(), sensor.ACC, scale.Sensor, seed)
}

func run() error {
	scale := experiment.CI()
	benign, _, err := scale.Programs()
	if err != nil {
		return err
	}

	fmt.Println("training the detector on benign prints...")
	ref, err := record(scale, benign, 1, nil)
	if err != nil {
		return err
	}
	det, err := nsync.NewDWMDetector(ref, scale.DWM["UM3"], 1.0)
	if err != nil {
		return err
	}
	var train []*nsync.Signal
	for seed := int64(2); seed <= 6; seed++ {
		s, err := record(scale, benign, seed, nil)
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

	fmt.Println("printing with compromised firmware; monitor listening live...")
	observed, err := record(scale, benign, 99, printer.SpeedFirmware(0.95, 0.3))
	if err != nil {
		return err
	}

	// Stream the recording through the monitor in quarter-second chunks,
	// exactly as a data-acquisition loop would deliver them.
	mon, err := nsync.NewMonitor(ref, scale.DWM["UM3"], th)
	if err != nil {
		return err
	}
	samples := make(chan *nsync.Signal, 1)
	go func() {
		defer close(samples)
		chunk := int(0.25 * observed.Rate)
		for pos := 0; pos < observed.Len(); pos += chunk {
			end := min(pos+chunk, observed.Len())
			samples <- observed.Slice(pos, end)
		}
	}()

	streamed := 0
	for chunk := range samples {
		streamed += chunk.Len()
		alerts, err := mon.Push(chunk)
		if err != nil {
			return err
		}
		if len(alerts) > 0 {
			fmt.Printf("\n!!! %s\n", alerts[0])
			fmt.Printf("stopping the print after %.1f s of a %.1f s job — %d%% of the material saved\n",
				float64(streamed)/observed.Rate, observed.Duration(),
				100-int(100*float64(streamed)/float64(observed.Len())))
			return nil
		}
	}
	fmt.Println("print finished with no alert (the attack was NOT caught)")
	return nil
}
