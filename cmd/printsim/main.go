// Command printsim simulates printing processes and records their
// side-channel signals to .nsig files — the data-acquisition half of the
// paper's testbed, in software.
//
// Usage:
//
//	printsim -printer UM3 -out data/ -runs 3                 # benign runs
//	printsim -printer RM3 -attack Void -seed 42 -out data/   # one attack run
//	printsim -gcode part.gcode -channels ACC,AUD -out data/  # custom G-code
//
// Each run produces one file per requested side channel, named
// <printer>_<label>_<seed>_<channel>.nsig, plus a .meta text file with the
// run's layer times and duration.
//
// With -stream, printsim becomes a live replay client instead: the
// simulated signals are framed and streamed to a running nsyncd over the
// ingest protocol, optionally injecting transport defects (reordering,
// duplication, loss, forced reconnects, a mid-print sensor death), and the
// daemon's verdict decides the exit status (2 = intrusion):
//
//	printsim -attack Void -stream localhost:7070 -channels ACC,MAG,AUD
//	printsim -stream localhost:7070 -shuffle 8 -dup 0.05 -reconnect-every 40
//
// -drift superimposes slow sensor aging (gain ramp, noise-floor creep,
// clock skew, DC offset wander) on the recorded or streamed signals, as
// print number print+i of a drifting sequence (mirroring -chaos syntax:
// comma-separated key=value):
//
//	printsim -runs 3 -drift 'noise=0.06,clock=0.0004,print=4' -stream localhost:7070
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nsync/internal/experiment"
	"nsync/internal/gcode"
	"nsync/internal/ingest"
	"nsync/internal/printer"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "printsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		printerName = flag.String("printer", "UM3", "printer profile: UM3 or RM3")
		attack      = flag.String("attack", "", "malicious process: Void, InfillGrid, Speed0.95, Layer0.3, Scale0.95 (empty = benign)")
		gcodePath   = flag.String("gcode", "", "custom G-code file (overrides -attack and the built-in gear)")
		outDir      = flag.String("out", ".", "output directory")
		seed        = flag.Int64("seed", 1, "base random seed (one run per seed)")
		runs        = flag.Int("runs", 1, "number of runs (seeds seed, seed+1, ...)")
		channelsArg = flag.String("channels", "ACC,TMP,MAG,AUD,EPT,PWR", "comma-separated side channels to record")
		scaleName   = flag.String("scale", "ci", "experiment scale: ci or paper")

		streamAddr = flag.String("stream", "", "stream to a running nsyncd at this address instead of writing files")
		sessionID  = flag.String("session", "", "ingest session id (default <printer>_<label>_<seed>)")
		priority   = flag.Int("priority", 100, "ingest session priority (lower sheds first)")
		tenantArg  = flag.String("tenant", "", "tenant id carried in the hello (prefix in fleet mode with -fleet-tenants > 1)")
		modelArg   = flag.String("model", "", "pin a trained model by content address (empty = server default)")
		frameLen   = flag.Int("frame", 100, "samples per data frame")
		shuffle    = flag.Int("shuffle", 0, "permute frame order within windows of this size (lossless reordering)")
		dupProb    = flag.Float64("dup", 0, "probability a frame is sent twice")
		dropProb   = flag.Float64("drop", 0, "probability a frame is never sent (lossy)")
		reconnect  = flag.Int("reconnect-every", 0, "force a disconnect+resume after every N frames")
		backoff    = flag.Duration("reconnect-backoff", 0, "base delay between dial attempts, growing exponentially with seeded jitter (default 10ms)")
		maxDials   = flag.Int("max-dials", 0, "connection attempts per session that failures may spend, first dial included; -reconnect-every reconnects are refunded while the server commits (default 8)")
		peersArg   = flag.String("peers", "", "comma-separated fleet peer addresses (the daemons' -peers list); sessions dial their jump-hash owner and fail over on peer death")
		maxRedir   = flag.Int("max-redirects", 0, "redirect hops a session may follow before erroring, separate from -max-dials (default 8)")
		cutChannel = flag.String("cut", "", "stop this channel's data at half the print (simulated sensor death)")
		driftArg   = flag.String("drift", "", "inject slow sensor drift, key=value pairs: gain/noise/clock/offset per-print rates, print=N (sequence index of the first run; run i is print N+i), seed=S, channel=ACC (e.g. 'noise=0.06,clock=0.0004,print=4')")

		fleetN      = flag.Int("fleet", 0, "fleet mode: stream this many concurrent sessions to -stream (exit 2 on any wrong-lane verdict)")
		fleetPar    = flag.Int("fleet-parallel", 64, "max fleet sessions in flight at once")
		fleetAttack = flag.Int("fleet-attack-every", 5, "every Nth fleet session streams the attack print (0 = all benign)")
		fleetDefect = flag.Int("fleet-defect-every", 3, "every Nth fleet session injects lossless transport defects (0 = none)")
		fleetTen    = flag.Int("fleet-tenants", 1, "spread fleet sessions across this many tenant ids")
	)
	flag.Parse()

	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	prof, err := profileByName(*printerName)
	if err != nil {
		return err
	}
	channels, err := parseChannels(*channelsArg)
	if err != nil {
		return err
	}
	prog, label, err := selectProgram(scale, *gcodePath, *attack)
	if err != nil {
		return err
	}
	var drift *sensor.DriftInjector
	driftPrint := 0
	if *driftArg != "" {
		plan, err := sensor.ParseDrift(*driftArg, *seed)
		if err != nil {
			return err
		}
		if drift, err = plan.Injector(); err != nil {
			return err
		}
		driftPrint = plan.Print
	}
	simulate := func(p *gcode.Program) (*printer.Trace, error) {
		tr, err := printer.Run(p, prof, printer.Options{
			Seed: *seed, TraceRate: scale.TraceRate,
			InitialHotend: 205, InitialBed: 60,
		})
		if err != nil {
			return nil, err
		}
		return tr.Recording(), nil
	}
	if *fleetN > 0 {
		if *streamAddr == "" {
			return fmt.Errorf("-fleet requires -stream")
		}
		// One benign and one attack print are simulated once; each client
		// then observes them through its own seeded sensors, so the fleet is
		// N distinct sessions without N printer simulations.
		benignProg, malicious, err := scale.Programs()
		if err != nil {
			return err
		}
		benignTr, err := simulate(benignProg)
		if err != nil {
			return err
		}
		var attackTr *printer.Trace
		if *fleetAttack > 0 {
			attackName := *attack
			if attackName == "" {
				attackName = "Void"
			}
			attackProg, ok := malicious[attackName]
			if !ok {
				return fmt.Errorf("unknown attack %q (want one of %v)", attackName, experiment.AttackNames)
			}
			if attackTr, err = simulate(attackProg); err != nil {
				return err
			}
		}
		return runFleet(benignTr, attackTr, channels, scale, *seed, *streamAddr, fleetOptions{
			sessions: *fleetN, parallel: *fleetPar,
			attackEvery: *fleetAttack, defectEvery: *fleetDefect, tenants: *fleetTen,
			frame: *frameLen, priority: *priority,
			tenant: *tenantArg, model: *modelArg,
			backoff: *backoff, maxDials: *maxDials,
			peers: splitList(*peersArg), maxRedirects: *maxRedir,
		})
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		tr, err := printer.Run(prog, prof, printer.Options{
			Seed: s, TraceRate: scale.TraceRate,
			InitialHotend: 205, InitialBed: 60,
		})
		if err != nil {
			return err
		}
		tr = tr.Recording()
		base := fmt.Sprintf("%s_%s_%d", prof.Name, label, s)
		if *streamAddr != "" {
			id := *sessionID
			if id == "" {
				id = base
			}
			err := streamRun(tr, channels, scale, s, *streamAddr, id, streamOptions{
				priority: *priority, frame: *frameLen, shuffle: *shuffle,
				dup: *dupProb, drop: *dropProb, reconnect: *reconnect, cut: *cutChannel,
				tenant: *tenantArg, model: *modelArg,
				backoff: *backoff, maxDials: *maxDials,
				peers: splitList(*peersArg), maxRedirects: *maxRedir,
				drift: drift, driftPrint: driftPrint + i,
			})
			if err != nil {
				return err
			}
			continue
		}
		for _, ch := range channels {
			sig, err := sensor.Acquire(tr, ch, scale.Sensor, s)
			if err != nil {
				return err
			}
			if drift != nil {
				if sig, err = drift.Apply(sig, ch, driftPrint+i); err != nil {
					return err
				}
			}
			path := filepath.Join(*outDir, fmt.Sprintf("%s_%s.nsig", base, ch))
			if err := sig.SaveFile(path); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%.1f s, %d ch @ %.0f Hz)\n", path, sig.Duration(), sig.Channels(), sig.Rate)
		}
		meta := fmt.Sprintf("printer=%s label=%s seed=%d duration=%.3f layers=%v\n",
			prof.Name, label, s, tr.Duration(), tr.LayerStart)
		if err := os.WriteFile(filepath.Join(*outDir, base+".meta"), []byte(meta), 0o644); err != nil {
			return err
		}
	}
	return nil
}

type streamOptions struct {
	priority, frame, shuffle, reconnect int
	dup, drop                           float64
	cut                                 string
	tenant, model                       string
	backoff                             time.Duration
	maxDials                            int
	peers                               []string
	maxRedirects                        int
	drift                               *sensor.DriftInjector
	driftPrint                          int
}

// streamRun acquires the run's side-channel signals and replays them to a
// running nsyncd, injecting the requested transport defects. The daemon's
// verdict is printed; an intrusion exits with status 2, matching nsyncid.
func streamRun(tr *printer.Trace, channels []sensor.Channel, scale experiment.Scale, seed int64, addr, id string, opt streamOptions) error {
	var signals []*sigproc.Signal
	var specs []ingest.ChannelSpec
	cut := -1
	for i, ch := range channels {
		sig, err := sensor.Acquire(tr, ch, scale.Sensor, seed)
		if err != nil {
			return err
		}
		if opt.drift != nil {
			if sig, err = opt.drift.Apply(sig, ch, opt.driftPrint); err != nil {
				return err
			}
		}
		signals = append(signals, sig)
		specs = append(specs, ingest.ChannelSpec{Name: ch.String(), Lanes: sig.Channels(), Rate: sig.Rate})
		if strings.EqualFold(ch.String(), opt.cut) {
			cut = i
		}
	}
	if opt.cut != "" && cut < 0 {
		return fmt.Errorf("-cut channel %q not in -channels", opt.cut)
	}
	fmt.Printf("streaming session %s (%d channels) to %s\n", id, len(specs), addr)
	ropt := ingest.ReplayOptions{
		FrameSamples: opt.frame, Seed: seed, ShuffleWindow: opt.shuffle,
		DupProb: opt.dup, DropProb: opt.drop, ReconnectAfter: opt.reconnect,
		DialBackoff: opt.backoff, MaxDials: opt.maxDials,
		Peers: opt.peers, MaxRedirects: opt.maxRedirects,
	}
	if cut >= 0 {
		ropt.CutChannels = []int{cut}
	}
	verdict, err := ingest.Replay(addr, ingest.Hello{
		SessionID: id, Priority: opt.priority, Channels: specs,
		Tenant: opt.tenant, Model: opt.model,
	}, signals, ropt)
	if err != nil {
		return err
	}
	for _, ch := range verdict.Channels {
		fmt.Printf("  channel %s: health=%s quarantined=%v voting=%v\n", ch.Name, ch.Health, ch.Quarantined, ch.Voting)
	}
	if verdict.Intrusion {
		first := ""
		if len(verdict.Alerts) > 0 {
			first = fmt.Sprintf(" (first at t=%.1fs)", verdict.Alerts[0].Time)
		}
		fmt.Printf("verdict: INTRUSION%s [%s]\n", first, verdict.Reason)
		os.Exit(2)
	}
	fmt.Printf("verdict: benign [%s]\n", verdict.Reason)
	return nil
}

func scaleByName(name string) (experiment.Scale, error) {
	switch name {
	case "ci":
		return experiment.CI(), nil
	case "paper":
		return experiment.Paper(), nil
	default:
		return experiment.Scale{}, fmt.Errorf("unknown scale %q (want ci or paper)", name)
	}
}

func profileByName(name string) (printer.Profile, error) {
	switch strings.ToUpper(name) {
	case "UM3":
		return printer.UM3(), nil
	case "RM3":
		return printer.RM3(), nil
	default:
		return printer.Profile{}, fmt.Errorf("unknown printer %q (want UM3 or RM3)", name)
	}
}

func splitList(arg string) []string {
	var out []string
	for _, p := range strings.Split(arg, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseChannels(arg string) ([]sensor.Channel, error) {
	byName := map[string]sensor.Channel{}
	for _, ch := range sensor.AllChannels {
		byName[ch.String()] = ch
	}
	var out []sensor.Channel
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(strings.ToUpper(name))
		if name == "" {
			continue
		}
		ch, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown channel %q", name)
		}
		out = append(out, ch)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no channels selected")
	}
	return out, nil
}

func selectProgram(scale experiment.Scale, gcodePath, attack string) (*gcode.Program, string, error) {
	if gcodePath != "" {
		f, err := os.Open(gcodePath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		prog, err := gcode.Parse(f)
		if err != nil {
			return nil, "", err
		}
		return prog, strings.TrimSuffix(filepath.Base(gcodePath), ".gcode"), nil
	}
	benign, malicious, err := scale.Programs()
	if err != nil {
		return nil, "", err
	}
	if attack == "" {
		return benign, "Benign", nil
	}
	prog, ok := malicious[attack]
	if !ok {
		return nil, "", fmt.Errorf("unknown attack %q (want one of %v)", attack, experiment.AttackNames)
	}
	return prog, attack, nil
}
