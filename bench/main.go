// Command bench is the repository benchmark. It runs one named workload —
// fleet sessions streamed to an ingest server assembled as cmd/nsyncd
// assembles it, or cold experiment.Table8 passes — checks every output
// against an independent oracle, and prints its metrics by name and unit:
//
//	go run . -workload fleet_durable -seed 1000 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// run's metadata. An untraced run (-trace 0) reports the end-to-end
// metrics, a traced run (-trace 1) the per-layer ones. -repeat N runs the
// workload N times with consecutive seeds and prints each end-to-end
// metric's spread next to its bound in BENCHMARK.json. The exit status is
// 0 only when every output was correct. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"nsync/internal/experiment"
	"nsync/internal/obs"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
	scale    experiment.Scale
	setups   int
	// workDir holds the journal of the durable workload.
	workDir string
	// sessionsPerConn, when positive, fixes the fleet sessions per
	// connection instead of running for seconds (tests only).
	sessionsPerConn int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet_paced, fleet_durable, ingest_smallframe or eval_table8")
	seed := fs.Int64("seed", 1000, "seed the inputs are generated from")
	secs := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, also write every span to this file as JSON lines")
	repeat := fs.Int("repeat", 0, "calibrate: run N times with seeds seed, seed+1, ... and print each end-to-end metric's spread and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need -workload <name>, -seconds > 0 and -trace 0 or 1:", err)
		return 2
	}
	o := options{
		seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace == 1,
		traceOut: *traceOut, scale: benchScale(), setups: setupRepeats, workDir: ".bench_build",
	}
	if *repeat > 0 {
		if err := calibrate(w, o, *repeat, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res, meta, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets up, runs the workload's window and checks its outputs.
func measure(w workload, o options) (*result, map[string]any, error) {
	probe := startMachineProbe()
	defer probe.end()
	var fx *fixture
	var setupRaw, setupS []float64
	for i := 0; i < o.setups; i++ {
		// Each set-up starts from the same heap, so peak RSS does not depend
		// on when the previous roster happened to be collected.
		fx = nil
		runtime.GC()
		start := time.Now()
		f, err := setup(w, o.scale, o.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		end := time.Now()
		setupRaw = append(setupRaw, end.Sub(start).Seconds())
		setupS = append(setupS, end.Sub(start).Seconds()*probe.speed(start, end))
		fx = f
	}
	runtime.GC() // and so does the measured window
	meta := metadata(w, o)
	meta["setup_s_raw"] = setupRaw
	values := map[string]float64{"setup_s": median(setupS)}

	var c checked
	var err error
	if w.eval {
		c, err = measureEval(fx, o, probe, values, meta)
	} else {
		c, err = measureFleet(w, fx, o, probe, values, meta)
	}
	if err != nil {
		return nil, nil, err
	}
	if c.first != nil {
		meta["first_failure"] = c.first.Error()
	}

	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	res := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		res.Metrics[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return res, meta, nil
}

// checked tallies the outputs a run checked against its oracle.
type checked struct {
	attempted, failed int
	first             error
}

// add counts one checked output; err is nil when it was correct.
func (c *checked) add(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.first == nil {
			c.first = err
		}
	}
}

func measureFleet(w workload, fx *fixture, o options, probe *machineProbe, values map[string]float64, meta map[string]any) (checked, error) {
	fo := fleetOptions{seconds: o.seconds, seed: o.seed, workDir: o.workDir, sessionsPerConn: o.sessionsPerConn}
	base, err := runFleet(w, fx, fo, nil)
	if err != nil {
		return checked{}, err
	}
	values["peak_rss_mb"] = peakRSSMB() // before the oracle adds its own
	printS, lat := base.judged(fx)
	if printS == 0 {
		return checked{}, errNoSessions
	}
	speed := probe.speed(base.start, base.start.Add(base.wall))
	raw := map[string]float64{
		"latency_mean_ms":   mean(lat),
		"latency_p50_ms":    median(lat),
		"latency_p90_ms":    percentile(lat, 0.9),
		"print_s_per_cpu_s": printS / base.cpu.Seconds(),
		"print_s_per_s":     printS / base.wall.Seconds(),
	}
	values["latency_mean_ms"] = raw["latency_mean_ms"] * speed
	values["print_s_per_cpu_s"] = raw["print_s_per_cpu_s"] / speed
	values["print_s_per_s"] = raw["print_s_per_s"] / speed
	if w.speedup > 0 {
		// An open loop's wall throughput is the load it offers while the
		// server keeps up; the machine's speed does not set it.
		values["print_s_per_s"] = raw["print_s_per_s"]
	}
	meta["raw"] = raw
	meta["machine_speed"] = speed
	meta["sessions"] = len(base.sessions)
	meta["verdict_samples"] = len(lat)
	meta["window_s"] = base.wall.Seconds()
	if w.speedup > 0 {
		meta["gen.lag_p50_ms"] = median(base.lagMs)
		meta["gen.lag_max_ms"] = percentile(base.lagMs, 1)
	}
	runs := []*fleetRun{base}
	if o.trace {
		tr := newTracer()
		obs.Reset()
		obs.SetEnabled(true)
		p0 := readProc()
		traced, err := runFleet(w, fx, fo, tr)
		p1 := readProc()
		obs.SetEnabled(false)
		if err != nil {
			return checked{}, err
		}
		runs = append(runs, traced)
		fleetLayers(values, traced, fx, tr, p0, p1, raw["print_s_per_cpu_s"])
		meta["traced_sessions"] = len(traced.sessions)
		meta["traced_snapshots"] = traced.snapshots
		if o.traceOut != "" {
			if err := tr.write(o.traceOut); err != nil {
				return checked{}, err
			}
		}
	}
	return checkFleet(w, fx, o.seed, runs)
}

// checkFleet compares every session's verdict with the verdict a fresh
// monitor gives on the same print. A failed or refused session counts as a
// wrong verdict.
func checkFleet(w workload, fx *fixture, seed int64, runs []*fleetRun) (checked, error) {
	used := make([]bool, len(fx.prints))
	for _, r := range runs {
		for _, s := range r.sessions {
			used[s.print] = true
		}
	}
	want, err := expectedVerdicts(fx, w, seed, used)
	if err != nil {
		return checked{}, err
	}
	var c checked
	for _, r := range runs {
		for _, s := range r.sessions {
			var err error
			switch {
			case s.err != nil:
				err = fmt.Errorf("session %s: %w", s.id, s.err)
			case !sameVerdict(s.v, want[s.print]):
				err = fmt.Errorf("session %s (%s): verdict %+v, a fresh monitor gives %+v",
					s.id, fx.prints[s.print].label, *s.v, *want[s.print])
			}
			c.add(err)
		}
	}
	return c, nil
}

// fleetLayers derives the per-layer metrics of a traced fleet window.
func fleetLayers(values map[string]float64, r *fleetRun, fx *fixture, tr *tracer, p0, p1 procSample, untracedEff float64) {
	coreSec := r.wall.Seconds() * float64(runtime.GOMAXPROCS(0))
	self := selfTimes(tr.all())
	share := func(name string) float64 { return self[name].Seconds() / coreSec }
	values["ingest.send_share"] = share("ingest.send")
	values["ingest.acquire_share"] = share("ingest.acquire")
	values["core.push_share"] = share("core.push")
	values["core.capture_share"] = share("core.capture")
	if r.frames > 0 {
		values["ingest.read_calls_per_frame"] = float64(r.listener.reads.Load()) / float64(r.frames)
		values["ingest.bytes_per_frame"] = float64(r.listener.bytes.Load()) / float64(r.frames)
	}
	if frames := obs.GetCounter("ingest.frames").Value(); frames > 0 {
		values["ingest.useful_frame_ratio"] = float64(frames-obs.GetCounter("ingest.dups").Value()) / float64(frames)
	}

	// Where each verdict's latency went: the last frame's wait from
	// SendData returning to the Push carrying its first sample, then the
	// sink's Finish.
	sinks := r.probe.released()
	var waits, finishes, budgets []float64
	captures, captureBytes := 0, 0
	for _, s := range r.sessions {
		k, ok := sinks[s.id]
		if !ok {
			continue
		}
		captures += k.captures
		captureBytes += k.captureBytes
		at, ok := k.pushStart(s.lastCh, s.lastSeq)
		if s.err != nil || !ok || s.latency <= 0 {
			continue
		}
		q, f := at.Sub(s.lastSent).Seconds(), k.finish.Seconds()
		waits = append(waits, q/s.latency.Seconds())
		finishes = append(finishes, f/s.latency.Seconds())
		budgets = append(budgets, (q+f)/s.latency.Seconds())
	}
	values["ingest.queue_wait_share"] = median(waits)
	values["core.finish_share"] = median(finishes)
	values["fleet.verdict_budget_ratio"] = median(budgets)
	if captures > 0 {
		values["core.capture_kb"] = float64(captureBytes) / float64(captures) / 1024
	}
	n := float64(len(r.sessions))
	values["journal.appends_per_session"] = float64(obs.GetCounter("journal.appends").Value()) / n
	values["journal.kb_per_session"] = float64(obs.GetCounter("journal.bytes").Value()) / 1024 / n
	values["journal.snapshot_share"] = obs.GetTimer("journal.snapshot").Histogram().Sum() / coreSec

	printS, _ := r.judged(fx)
	detectorLayers(values, printS, p0, p1)
	values["trace.overhead_ratio"] = printS / r.cpu.Seconds() / untracedEff
}

// detectorLayers derives the DWM, TDE and process metrics of a traced
// window from the program's own obs counters.
func detectorLayers(values map[string]float64, printS float64, p0, p1 procSample) {
	step := obs.GetTimer("dwm.step").Histogram()
	values["dwm.step_us"] = step.Mean() * 1e6
	values["dwm.steps_per_print_s"] = float64(step.Count()) / printS
	if step.Count() > 0 {
		values["tde.estimates_per_window"] = float64(obs.GetCounter("tde.estimates").Value()) / float64(step.Count())
	}
	values["proc.alloc_mb_per_print_s"] = float64(p1.allocBytes-p0.allocBytes) / (1 << 20) / printS
	values["proc.gc_cycles"] = float64(p1.gcCycles - p0.gcCycles)
	if cpu := p1.totalCPU - p0.totalCPU; cpu > 0 {
		values["proc.gc_cpu_share"] = (p1.gcCPU - p0.gcCPU) / cpu
	}
}

func measureEval(fx *fixture, o options, probe *machineProbe, values map[string]float64, meta map[string]any) (checked, error) {
	ds := evalDataset(fx.ds)
	passes, err := runEvalPasses(ds, o.seconds)
	if err != nil {
		return checked{}, err
	}
	values["peak_rss_mb"] = peakRSSMB() // before the oracle adds its own
	printS := passPrintSeconds(ds)
	var walls, lat, rawEffs, effs, rates, speeds []float64
	for _, p := range passes {
		speed := probe.speed(p.start, p.start.Add(p.wall))
		ms := float64(p.wall) / float64(time.Millisecond)
		walls = append(walls, ms)
		speeds = append(speeds, speed)
		lat = append(lat, ms*speed)
		rawEffs = append(rawEffs, printS/p.cpu.Seconds())
		effs = append(effs, printS/p.cpu.Seconds()/speed)
		rates = append(rates, printS/p.wall.Seconds()/speed)
	}
	values["latency_mean_ms"] = mean(lat)
	values["print_s_per_cpu_s"] = mean(effs)
	values["print_s_per_s"] = mean(rates)
	meta["passes"] = len(passes)
	meta["pass_ms_raw"] = walls
	meta["machine_speed"] = speeds
	meta["roster"] = map[string]int{"train": len(ds.Train), "test_benign": len(ds.TestBenign), "test_attack": len(ds.TestMalicious)}

	var tr *tracer
	workers := runtime.NumCPU()
	if o.trace {
		obs.Reset()
		obs.SetEnabled(true)
		p0 := readProc()
		tp, err := runEvalPass(ds)
		p1 := readProc()
		obs.SetEnabled(false)
		if err != nil {
			return checked{}, err
		}
		passes = append(passes, tp)
		detectorLayers(values, printS, p0, p1)
		values["experiment.pool_wait_share"] = obs.GetTimer("pool.queue_latency").Histogram().Quantile(0.5) / tp.wall.Seconds()
		values["trace.overhead_ratio"] = printS / tp.cpu.Seconds() / median(rawEffs)
		tr, workers = newTracer(), 1
	}
	t := time.Now()
	want, err := decompose(ds, workers, tr)
	if err != nil {
		return checked{}, err
	}
	if tr != nil {
		serial := time.Since(t).Seconds()
		self := selfTimes(tr.all())
		var coverage float64
		for _, l := range []string{"stft.transform", "dwm.synchronize", "core.features", "core.occ", "core.detect"} {
			values[l+"_share"] = self[l].Seconds() / serial
			coverage += values[l+"_share"]
		}
		values["experiment.span_coverage"] = coverage
		values["experiment.parallel_efficiency"] = serial / (median(walls) / 1000 * float64(runtime.NumCPU()))
		if o.traceOut != "" {
			if err := tr.write(o.traceOut); err != nil {
				return checked{}, err
			}
		}
	}

	var c checked
	for _, p := range passes {
		for i, row := range p.rows {
			var err error
			if got, exp := rowDigest(p.rows[i:i+1]), rowDigest(want[i:i+1]); got != exp {
				err = fmt.Errorf("Table8 row %v/%v: digest %s, the layer-by-layer recomputation gives %s",
					row.Transform, row.Channel, got, exp)
			}
			c.add(err)
		}
	}
	digest := rowDigest(want)
	meta["digest"] = digest
	pinned, listed, err := pinnedDigest(o.seed)
	if err != nil {
		return checked{}, err
	}
	if listed {
		// A pinned seed must reproduce its committed rows exactly; a
		// mismatch fails every cell, as it cannot say which one moved.
		var err error
		if digest != pinned {
			err = fmt.Errorf("seed %d: Table8 digest %s, pinned %s", o.seed, digest, pinned)
		}
		for range want {
			c.add(err)
		}
	}
	return c, nil
}

// procSample is the process-wide counters a traced window differences.
type procSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readProc() procSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return procSample{
		allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// metadata records what a result needs to be compared with another.
func metadata(w workload, o options) map[string]any {
	params := map[string]any{"setups": o.setups}
	if w.eval {
		params["workers"] = experiment.Workers()
	} else {
		var chans []string
		for _, ch := range w.channels {
			chans = append(chans, ch.String())
		}
		params["channels"] = chans
		params["connections"] = runtime.NumCPU()
		params["frame_seconds"] = w.frameSeconds
		params["frame_samples"] = w.frameSamples
		params["speedup"] = w.speedup
		params["journal"] = w.journal
		params["shuffle_window"] = w.shuffleWindow
		params["dup_prob"] = w.dupProb
	}
	return map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds.Seconds(), "trace": o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "cpu_model": cpuModel(),
		"go_version": runtime.Version(), "commit": commit(), "params": params,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
