package printer

import (
	"nsync/internal/gcode"
)

// This file provides a library of ready-made firmware attacks — the second
// attacker of the paper's threat model (Section IV): the printer's firmware
// is compromised, so it misbehaves even when fed benign G-code. Each
// constructor returns a FirmwareHook for Options.Firmware. Because the
// hooks run inside the printer, none of them leave any trace in the G-code
// stream an upstream integrity check could see.

// SpeedFirmware makes the firmware execute every move at factor times the
// commanded feed rate once the tool has risen above activateZ — a stealthy
// under/over-speed sabotage that weakens layer bonding.
func SpeedFirmware(factor, activateZ float64) FirmwareHook {
	armed := false
	return func(cmd gcode.Command) *gcode.Command {
		if z, ok := cmd.Get('Z'); ok && z > activateZ {
			armed = true
		}
		if armed && cmd.IsMove() {
			if f, ok := cmd.Get('F'); ok {
				cmd.Set('F', f*factor)
			}
		}
		return &cmd
	}
}

// ZOffsetFirmware shifts every Z target by offset millimeters, crushing or
// detaching layers while the G-code remains pristine.
func ZOffsetFirmware(offset float64) FirmwareHook {
	return func(cmd gcode.Command) *gcode.Command {
		if cmd.IsMove() {
			if z, ok := cmd.Get('Z'); ok {
				cmd.Set('Z', z+offset)
			}
		}
		return &cmd
	}
}

// TempFirmware biases every hotend temperature command by delta Celsius —
// under-extrusion through cold printing, or degradation through overheat.
func TempFirmware(delta float64) FirmwareHook {
	return func(cmd gcode.Command) *gcode.Command {
		switch cmd.Code {
		case "M104", "M109":
			if tgt, ok := cmd.Get('S'); ok && tgt > 0 {
				cmd.Set('S', tgt+delta)
			}
		}
		return &cmd
	}
}

// UnderExtrudeFirmware drops the extrusion from every nth extruding move
// (n >= 2), starving the part of material at a rate that survives a quick
// visual check.
func UnderExtrudeFirmware(n int) FirmwareHook {
	if n < 2 {
		n = 2
	}
	count := 0
	lastE := 0.0
	deficit := 0.0
	return func(cmd gcode.Command) *gcode.Command {
		if cmd.Code == "G92" {
			if e, ok := cmd.Get('E'); ok {
				lastE = e
				deficit = 0
			}
			return &cmd
		}
		if !cmd.IsMove() {
			return &cmd
		}
		e, ok := cmd.Get('E')
		if !ok {
			return &cmd
		}
		if e > lastE {
			count++
			if count%n == 0 {
				deficit += e - lastE
				lastE = e
				cmd.Delete('E')
				return &cmd
			}
		}
		lastE = e
		cmd.Set('E', e-deficit)
		return &cmd
	}
}

// DwellInjectorFirmware pauses the printer for dwellSeconds after every
// interval moves — cold joints between otherwise perfect extrusions.
// Because FirmwareHook is one-to-one, the pause is expressed by rewriting
// the move to end with a zero-feed crawl.
func DwellInjectorFirmware(interval int, slowFactor float64) FirmwareHook {
	if interval < 1 {
		interval = 1
	}
	if slowFactor <= 0 || slowFactor >= 1 {
		slowFactor = 0.2
	}
	count := 0
	lastF := 1800.0 // a sane default if no move has named a feed yet
	return func(cmd gcode.Command) *gcode.Command {
		if cmd.IsMove() {
			if f, ok := cmd.Get('F'); ok {
				lastF = f
			}
			if cmd.Has('E') {
				count++
				if count%interval == 0 {
					cmd.Set('F', lastF*slowFactor)
				} else if !cmd.Has('F') {
					// Restore the modal feed so the slowdown does not
					// leak into following moves.
					cmd.Set('F', lastF)
				}
			}
		}
		return &cmd
	}
}
