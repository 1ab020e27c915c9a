// Command nsyncid runs the NSYNC intrusion detection system over recorded
// side-channel signals (.nsig files, as produced by printsim).
//
// Usage:
//
//	nsyncid -ref ref.nsig -train t1.nsig,t2.nsig -observe obs.nsig
//	nsyncid -ref ref.nsig -train 't*.nsig' -observe obs.nsig -live
//	nsyncid -sync dtw -radius 1 ...
//	nsyncid -pprof :6060 ...   # profiling + plaintext metrics at /metrics
//	nsyncid -retries 5 ...     # retry transient signal-load failures with backoff
//
// Offline mode classifies the observation after reading it fully; -live
// replays the observation in chunks through the streaming monitor and
// reports the moment the first alert fires — what an air-gapped deployment
// beside a printer would do.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"nsync/internal/core"
	"nsync/internal/dwm"
	metrics "nsync/internal/obs"
	"nsync/internal/resilience"
	"nsync/internal/sigproc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nsyncid:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		refPath   = flag.String("ref", "", "reference signal (.nsig), required")
		trainArg  = flag.String("train", "", "comma-separated benign training signals (globs allowed), required")
		obsPath   = flag.String("observe", "", "observed signal to classify, required")
		syncName  = flag.String("sync", "dwm", "dynamic synchronizer: dwm, dtw, or none")
		tWin      = flag.Float64("twin", 4.0, "DWM t_win seconds")
		tHop      = flag.Float64("thop", 0, "DWM t_hop seconds (default t_win/2)")
		tExt      = flag.Float64("text", 2.0, "DWM t_ext seconds")
		tSigma    = flag.Float64("tsigma", 0, "DWM t_sigma seconds (default t_ext/2)")
		eta       = flag.Float64("eta", 0.1, "DWM eta")
		radius    = flag.Int("radius", 1, "FastDTW radius (sync=dtw)")
		occMargin = flag.Float64("r", 0.3, "OCC margin r")
		live      = flag.Bool("live", false, "replay the observation through the streaming monitor")
		chunkSec  = flag.Float64("chunk", 0.25, "live-mode chunk size in seconds")
		workers   = flag.Int("workers", 0, "parallel feature extractions during training (0 = one per CPU, 1 = serial)")
		timeout   = flag.Duration("timeout", 0, "abort after this long (0 = no limit)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and plaintext /metrics on this address (e.g. :6060); enables metric collection")
		retries   = flag.Int("retries", 1, "attempts per signal file load (I/O errors retry with backoff; malformed files fail immediately)")
	)
	flag.Parse()
	if *refPath == "" || *trainArg == "" || *obsPath == "" {
		flag.Usage()
		return fmt.Errorf("-ref, -train and -observe are required")
	}
	// Check the mode before the slow part: loading every file and training.
	switch {
	case *syncName != "dwm" && *syncName != "dtw" && *syncName != "none":
		return fmt.Errorf("unknown synchronizer %q", *syncName)
	case *live && *syncName != "dwm":
		return fmt.Errorf("-live requires -sync dwm (streaming DTW is not supported; see Section VI-A)")
	}
	if *pprofAddr != "" {
		metrics.SetEnabled(true)
		http.Handle("/metrics", metrics.Handler())
		go func() {
			// The profiling server lives for the whole process; a busy
			// detector keeps working if the port is taken, but says why.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "nsyncid: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "profiling at http://%s/debug/pprof/, metrics at /metrics\n", *pprofAddr)
	}

	// Ctrl-C (and -timeout, when set) aborts training mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Once cancelled, unregister the handler: in-flight training runs
	// finish before the pool drains, so a second Ctrl-C force-quits.
	go func() { <-ctx.Done(); stop() }()

	load := signalLoader(*retries)
	ref, err := load(ctx, *refPath)
	if err != nil {
		return err
	}
	trainPaths, err := expandPaths(*trainArg)
	if err != nil {
		return err
	}
	var train []*sigproc.Signal
	for _, p := range trainPaths {
		s, err := load(ctx, p)
		if err != nil {
			return err
		}
		train = append(train, s)
	}
	obs, err := load(ctx, *obsPath)
	if err != nil {
		return err
	}

	params := dwm.Params{TWin: *tWin, THop: *tHop, TExt: *tExt, TSigma: *tSigma, Eta: *eta}
	if params.THop == 0 {
		params.THop = params.TWin / 2
	}
	if params.TSigma == 0 {
		params.TSigma = params.TExt / 2
	}
	var sync core.Synchronizer
	switch *syncName {
	case "dwm":
		sync = &core.DWMSynchronizer{Params: params}
	case "dtw":
		sync = &core.DTWSynchronizer{Radius: *radius}
	default: // "none"
		sync = &core.NullSynchronizer{Window: int(params.TWin * ref.Rate), Hop: int(params.THop * ref.Rate)}
	}

	// core.Config.Workers: 0 or 1 is serial, negative means one per CPU.
	trainWorkers := *workers
	if trainWorkers == 0 {
		trainWorkers = -1
	}
	det, err := core.NewDetector(ref, core.Config{Sync: sync, OCC: core.OCCConfig{R: *occMargin}, Workers: trainWorkers})
	if err != nil {
		return err
	}
	fmt.Printf("training on %d benign runs (sync=%s, r=%.2f)...\n", len(train), sync.Name(), *occMargin)
	if err := det.TrainContext(ctx, train); err != nil {
		return err
	}
	th, err := det.Thresholds()
	if err != nil {
		return err
	}
	fmt.Printf("learned thresholds: c_c=%.4g h_c=%.4g v_c=%.4g\n", th.CC, th.HC, th.VC)

	if *live {
		return runLive(ref, obs, params, th, *chunkSec)
	}

	verdict, err := det.Classify(obs)
	if err != nil {
		return err
	}
	if verdict.Intrusion {
		fmt.Printf("INTRUSION at t=%.1fs (index %d), sub-modules: %v\n",
			verdict.FirstTime, verdict.FirstIndex, verdict.Triggered)
		os.Exit(2)
	}
	fmt.Println("benign: no intrusion detected")
	return nil
}

func runLive(ref, obs *sigproc.Signal, params dwm.Params, th core.Thresholds, chunkSec float64) error {
	mon, err := core.NewMonitor(ref, params, th)
	if err != nil {
		return err
	}
	chunk := int(chunkSec * obs.Rate)
	if chunk < 1 {
		chunk = 1
	}
	for pos := 0; pos < obs.Len(); pos += chunk {
		end := pos + chunk
		if end > obs.Len() {
			end = obs.Len()
		}
		alerts, err := mon.Push(obs.Slice(pos, end))
		if err != nil {
			return err
		}
		for _, a := range alerts {
			fmt.Println(a)
		}
		if len(alerts) > 0 {
			fmt.Printf("stopping print at stream position %.1fs\n", float64(end)/obs.Rate)
			os.Exit(2)
		}
	}
	fmt.Printf("stream complete: %d windows analyzed, no intrusion\n", mon.WindowsProcessed())
	return nil
}

// signalLoader wraps sigproc.LoadFile in the retry policy selected by
// -retries: I/O hiccups (a recorder still flushing, a transiently busy NFS
// mount) are retried with backoff, while a malformed file — which would fail
// identically on every attempt — fails immediately.
func signalLoader(attempts int) func(ctx context.Context, path string) (*sigproc.Signal, error) {
	if attempts <= 1 {
		return func(_ context.Context, path string) (*sigproc.Signal, error) {
			return sigproc.LoadFile(path)
		}
	}
	pol := resilience.Policy{
		MaxAttempts: attempts,
		Classify: func(err error) bool {
			return !errors.Is(err, sigproc.ErrBadFormat) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		},
	}
	return func(ctx context.Context, path string) (*sigproc.Signal, error) {
		return resilience.Do(ctx, pol, func(context.Context) (*sigproc.Signal, error) {
			return sigproc.LoadFile(path)
		})
	}
}

func expandPaths(arg string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		matches, err := filepath.Glob(part)
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("no files match %q", part)
		}
		out = append(out, matches...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no training files")
	}
	return out, nil
}
