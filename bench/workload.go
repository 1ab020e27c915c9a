package main

import (
	"fmt"

	"nsync/internal/experiment"
	"nsync/internal/sensor"
)

// workload is one named input shape of the benchmark. Its parameters live
// here rather than on the command line so that both sides of a comparison
// run identical inputs; only the seed and the run length vary.
type workload struct {
	name string
	// eval selects the evaluation path (experiment.Table8) instead of the
	// fleet path (sessions streamed to an ingest server).
	eval bool

	// Fleet path only.
	channels []sensor.Channel
	// frameSeconds is the sensor time one data frame carries on every
	// channel; when it is 0, each frame carries frameSamples samples.
	frameSeconds float64
	frameSamples int
	// speedup makes the load an open loop: frames are released on the sensor
	// clock run this many times faster than real time, whatever the server
	// does. 0 makes it a closed loop that sends flat out.
	speedup float64
	// journal turns on the crash-safe session journal.
	journal bool
	// shuffleWindow permutes each session's frames within windows of this
	// many frames, and dupProb sends a frame twice with this probability.
	// Both are lossless, so verdicts do not change.
	shuffleWindow int
	dupProb       float64
}

// The three channels nsyncd serves by default, and the audio-free pair the
// small-frame workload uses, so that per-frame costs weigh more than
// synchronizing audio does.
var (
	accMagAud = []sensor.Channel{sensor.ACC, sensor.MAG, sensor.AUD}
	accMag    = []sensor.Channel{sensor.ACC, sensor.MAG}
)

// workloads are the benchmark's inputs; BENCHMARK.json and README.md say
// why each was chosen.
var workloads = []workload{
	// The operator's question: does the daemon keep up, and how long after a
	// print ends does its verdict arrive. 50x per connection is about 2/3 of
	// fleet_durable's capacity on a 2-core machine; it is fixed rather than
	// measured per run, so a slower server meets the same load.
	{name: "fleet_paced", channels: accMagAud, frameSeconds: 0.1, speedup: 50},
	// The capacity of a crash-safe daemon: detection plus journal snapshots.
	{name: "fleet_durable", channels: accMagAud, frameSeconds: 0.1, journal: true},
	// Per-frame costs: codec, syscalls, resequencer, queue and per-push
	// overhead, with a cheaper model than the fleet's.
	{name: "ingest_smallframe", channels: accMag, frameSamples: 4, shuffleWindow: 8, dupProb: 0.05},
	// The researcher's reproduction loop: STFT, batch DWM, the worker pool.
	{name: "eval_table8", eval: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// benchScale is the roster every workload generates at set-up: the seed's
// CI scale on UM3 (about 65 simulated seconds per print), cut to what the
// fleet replays — a reference, 6 training prints, 5 benign test prints and
// one print of each Table I attack.
func benchScale() experiment.Scale {
	s := experiment.CI()
	s.Counts = experiment.Counts{Train: 6, TestBenign: 5, PerAttack: 1}
	return s
}

// metricSpec names one reported metric. The two lists below must match
// BENCHMARK.json, which a test checks.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports, on every workload, with
// times at reference machine speed (see machine.go). For the evaluation
// path a "print-second" is one second of one print synchronized in one
// Table VIII cell, and latency is a whole pass.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_mean_ms", "ms", "lower"},
	{"print_s_per_cpu_s", "print_s/cpu_s", "higher"},
	{"print_s_per_s", "print_s/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer that a workload does not run reports 0, which is why every time a
// layer may not spend is given as a share rather than in seconds.
var perLayer = []metricSpec{
	{"ingest.send_share", "ratio", "lower"},
	{"ingest.acquire_share", "ratio", "lower"},
	{"ingest.read_calls_per_frame", "count", "lower"},
	{"ingest.bytes_per_frame", "bytes", "lower"},
	{"ingest.useful_frame_ratio", "ratio", "higher"},
	{"ingest.queue_wait_share", "ratio", "lower"},
	{"core.push_share", "ratio", "lower"},
	{"core.finish_share", "ratio", "lower"},
	{"core.capture_share", "ratio", "lower"},
	{"core.capture_kb", "KB", "lower"},
	{"journal.appends_per_session", "count", "lower"},
	{"journal.kb_per_session", "KB", "lower"},
	{"journal.snapshot_share", "ratio", "lower"},
	{"dwm.step_us", "us", "lower"},
	{"dwm.steps_per_print_s", "count", "lower"},
	{"tde.estimates_per_window", "count", "lower"},
	{"stft.transform_share", "ratio", "lower"},
	{"dwm.synchronize_share", "ratio", "lower"},
	{"core.features_share", "ratio", "lower"},
	{"core.occ_share", "ratio", "lower"},
	{"core.detect_share", "ratio", "lower"},
	{"experiment.pool_wait_share", "ratio", "lower"},
	{"experiment.parallel_efficiency", "ratio", "higher"},
	{"experiment.span_coverage", "ratio", "higher"},
	{"fleet.verdict_budget_ratio", "ratio", "higher"},
	{"proc.alloc_mb_per_print_s", "MB", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_cpu_share", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}
