// Command nsyncd is the live NSYNC detection daemon: it trains per-channel
// detectors from recorded benign prints at startup, then accepts framed
// side-channel streams over TCP (the ingest protocol) and answers each
// session with a fused intrusion verdict. This is the deployment shape the
// paper argues for in Section VI — a detector that runs beside the printer
// for the whole print, not a batch classifier after it.
//
// Usage:
//
//	nsyncd -listen :7070 \
//	    -ref 'data/UM3_Benign_1_%s.nsig' \
//	    -train 'data/UM3_Benign_2_%s.nsig,data/UM3_Benign_3_%s.nsig' \
//	    -channels ACC,MAG,AUD -k 2
//
// The %s in -ref and -train expands to each channel name, matching the
// <printer>_<label>_<seed>_<channel>.nsig files printsim writes. On SIGTERM
// or SIGINT the daemon drains gracefully: it stops accepting, flushes every
// in-flight session's monitors, sends the final verdicts, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/ingest"
	metrics "nsync/internal/obs"
	"nsync/internal/registry"

	"nsync/internal/sigproc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nsyncd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listenAddr  = flag.String("listen", ":7070", "TCP address to accept ingest sessions on")
		refPattern  = flag.String("ref", "", "reference signal path pattern with %s for the channel name, required")
		trainArg    = flag.String("train", "", "comma-separated training path patterns, each with %s for the channel name, required")
		channelsArg = flag.String("channels", "ACC,MAG,AUD", "comma-separated channel names, in session order")
		quorum      = flag.Int("k", 0, "fused vote quorum (0 = any single channel)")
		tWin        = flag.Float64("twin", 4.0, "DWM t_win seconds")
		tHop        = flag.Float64("thop", 0, "DWM t_hop seconds (default t_win/2)")
		tExt        = flag.Float64("text", 2.0, "DWM t_ext seconds")
		tSigma      = flag.Float64("tsigma", 0, "DWM t_sigma seconds (default t_ext/2)")
		eta         = flag.Float64("eta", 0.1, "DWM eta")
		occMargin   = flag.Float64("r", 0.3, "OCC margin r")
		queueDepth  = flag.Int("queue", 64, "per-session frame queue depth")
		watermark   = flag.Int("shed-watermark", 256, "aggregate queued frames before load shedding")
		tenantSess  = flag.Int("tenant-sessions", 0, "per-tenant concurrent session quota (0 = unlimited)")
		tenantQueue = flag.Int("tenant-frames", 0, "per-tenant aggregate queued-frame quota (0 = unlimited)")
		peersArg    = flag.String("peers", "", "comma-separated addresses of every fleet peer, identical on all of them; enables multi-process clustering (empty: standalone)")
		peerID      = flag.Int("peer-id", 0, "this process's index into -peers")
		peerProbe   = flag.Duration("peer-probe", time.Second, "mean peer health-probe period (jittered)")
		doHandoff   = flag.Bool("handoff", true, "on SIGTERM, hand live sessions to successor peers before draining (requires -peers)")
		journalDir  = flag.String("journal", "", "session journal directory; enables crash recovery of in-flight sessions (empty: off)")
		journalSync = flag.String("journal-sync", "interval", "journal fsync policy: interval, always, or none")
		snapEvery   = flag.Int("snapshot-every", 0, "journal a monitor snapshot every N frames per session (0 = default 256)")
		readTimeout = flag.Duration("read-timeout", 30*time.Second, "per-frame read deadline")
		enqTimeout  = flag.Duration("enqueue-timeout", 10*time.Second, "stalled-session eviction timeout")
		retention   = flag.Duration("retention", 60*time.Second, "detached session retention for reconnect")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and plaintext /metrics on this address; enables metric collection")
		showMetrics = flag.Bool("metrics", false, "enable metric collection and print the metrics report on exit")

		recoveryWins = flag.Int("recovery-windows", 0, "consecutive healthy windows that un-quarantine a channel (0: quarantine is sticky)")

		rebaseAlpha  = flag.Float64("rebase", 0, "rolling re-baseline EWMA weight alpha in (0,1] (0 disables continuous re-baselining)")
		rebaseAfter  = flag.Int("rebase-after", 3, "absorbed benign prints before a candidate model is proposed")
		rebaseWindow = flag.Int("rebase-window", 8, "threshold recalibration window (prints)")
		modelStore   = flag.String("model-store", "", "directory for the content-addressed model store (empty: candidates are not persisted)")
		shadowSess   = flag.Int("shadow-sessions", 2, "agreeing sessions a candidate must shadow before canary")
		canarySess   = flag.Int("canary-sessions", 1, "agreeing sessions a candidate must serve as canary before promotion")
		disagreeBgt  = flag.Int("disagree-budget", 0, "verdict disagreements a candidate may accumulate before rollback")
	)
	flag.Parse()
	if *refPattern == "" || *trainArg == "" {
		flag.Usage()
		return fmt.Errorf("-ref and -train are required")
	}
	if *showMetrics {
		metrics.SetEnabled(true)
	}
	if *pprofAddr != "" {
		metrics.SetEnabled(true)
		http.Handle("/metrics", metrics.Handler())
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
		log.Printf("profiling at http://%s/debug/pprof/, metrics at /metrics", *pprofAddr)
	}

	names := splitNonEmpty(*channelsArg)
	if len(names) == 0 {
		return fmt.Errorf("no channels selected")
	}
	params := dwm.Params{TWin: *tWin, THop: *tHop, TExt: *tExt, TSigma: *tSigma, Eta: *eta}
	if params.THop == 0 {
		params.THop = params.TWin / 2
	}
	if params.TSigma == 0 {
		params.TSigma = params.TExt / 2
	}

	health := core.HealthConfig{RecoveryWindows: *recoveryWins}
	chans, specs, feats, err := trainChannels(names, *refPattern, splitNonEmpty(*trainArg), params, *occMargin, health)
	if err != nil {
		return err
	}

	// The trained boot configuration becomes a content-addressed model in a
	// shared pool: every session on the same model shares one set of
	// reference signals, and a fleet client can pin a specific version via
	// the Hello's model field. With -model-store the pool also serves any
	// previously persisted version on demand.
	boot := &registry.Model{K: *quorum}
	for _, ch := range chans {
		boot.Channels = append(boot.Channels, registry.ChannelModel{
			Name: ch.Name, Reference: ch.Reference, Params: ch.Params,
			Thresholds: ch.Thresholds, Health: ch.Health,
		})
	}
	var store *registry.Store
	if *modelStore != "" {
		if store, err = registry.OpenStore(*modelStore); err != nil {
			return err
		}
		if *journalDir != "" {
			// A journal entry pins its model by hash; the model file that
			// hash resolves to must be at least as durable as the journal.
			store.SetSync(true)
		}
		if _, err := store.Put(boot); err != nil {
			return fmt.Errorf("persist boot model: %w", err)
		}
	}
	pool := ingest.NewSharedPool(store)
	bootVersion, err := pool.Register(boot)
	if err != nil {
		return err
	}
	log.Printf("boot model %s registered (default)", bootVersion)

	// Sessions are served straight from the pool. With -rebase, the pool
	// also tees new sessions into a candidate model, which shadows, then
	// serves as canary on, live sessions; promotion itself flips the pool's
	// default version.
	var factory ingest.SinkFactory = pool
	if *rebaseAlpha > 0 {
		ctrl, err := newController(continuousOptions{
			Alpha: *rebaseAlpha, Window: *rebaseWindow, Margin: *occMargin,
			RebaseAfter: *rebaseAfter, Store: store,
			Quorum: *quorum, Health: health,
			Deploy: registry.DeploymentConfig{
				ShadowSessions: *shadowSess, CanarySessions: *canarySess,
				DisagreementBudget: *disagreeBgt,
			},
		}, chans, feats, specs, pool, bootVersion)
		if err != nil {
			return err
		}
		factory = &captureFactory{pool: pool, ctrl: ctrl}
	}
	// With -journal, boot replays the session journal before serving: every
	// session that was in flight when the previous process died comes back
	// detached, its monitor state restored from the last durable snapshot,
	// waiting for its client to reconnect through the ordinary resume path.
	var journal *ingest.Journal
	var journaled []*ingest.Frame
	if *journalDir != "" {
		mode, err := ingest.ParseJournalSyncMode(*journalSync)
		if err != nil {
			return err
		}
		journal, journaled, err = ingest.OpenJournal(*journalDir, ingest.JournalConfig{
			SyncMode: mode, Logf: log.Printf,
		})
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		defer journal.Close()
		log.Printf("session journal at %s (sync=%s)", *journalDir, *journalSync)
	}

	// The server enforces the tenant quotas; with -peers, the cluster bound
	// to it gossips the table's usage to peers and folds theirs in.
	tenants := ingest.NewTenantTable(ingest.TenantQuota{MaxSessions: *tenantSess, MaxQueuedFrames: *tenantQueue})

	// With -peers, this process is one peer of a static-membership fleet:
	// it redirects Hellos to their jump-hash owner, health-checks the other
	// peers (piggybacking tenant usage), and on SIGTERM hands its live
	// sessions to their successors instead of just draining them.
	var cluster *ingest.Cluster
	if peers := splitNonEmpty(*peersArg); len(peers) > 0 {
		cluster, err = ingest.NewCluster(ingest.ClusterConfig{
			Peers:         peers,
			PeerID:        *peerID,
			ProbeInterval: *peerProbe,
			Logf:          log.Printf,
		})
		if err != nil {
			return err
		}
		log.Printf("cluster peer %d of %d (%s)", *peerID, len(peers), peers[*peerID])
	}

	srv, err := ingest.NewServer(ingest.Config{
		Factory:             factory,
		QueueDepth:          *queueDepth,
		ShedWatermark:       *watermark,
		ReadTimeout:         *readTimeout,
		EnqueueTimeout:      *enqTimeout,
		Retention:           *retention,
		Tenants:             tenants,
		Journal:             journal,
		SnapshotEveryFrames: *snapEvery,
		Cluster:             cluster,
		Logf:                log.Printf,
	})
	if err != nil {
		return err
	}
	if journal != nil {
		n := srv.Recover(journaled, pool)
		log.Printf("journal: recovered %d of %d journaled sessions", n, len(journaled))
	}
	if cluster != nil {
		cluster.Bind(srv, pool)
		cluster.Start()
		defer cluster.Close()
	}

	l, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s (%d channels, k=%d)", l.Addr(), len(specs), *quorum)

	// SIGTERM/SIGINT starts the graceful drain; Serve returns nil once the
	// listener closes and Shutdown flushes every in-flight session.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if cluster != nil && *doHandoff {
			migrated, failed := cluster.HandoffAll(ctx)
			log.Printf("handoff: migrated %d sessions (%d failed)", migrated, failed)
		}
		log.Printf("received %v: draining %d sessions", sig, srv.SessionCount())
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errCh; err != nil {
			return err
		}
		log.Printf("drained cleanly")
		if *showMetrics {
			fmt.Print(metrics.Report())
		}
		return nil
	}
}

// trainChannels loads each channel's reference and training runs, learns
// its thresholds, and returns the fused monitor configuration, the
// wire-level channel specs sessions must match, and the per-channel training
// features (kept so the re-baseline engine can seed its recalibration
// window with the boot model's exact training evidence).
func trainChannels(names []string, refPattern string, trainPatterns []string, params dwm.Params, r float64, health core.HealthConfig) ([]core.FusedMonitorChannel, []ingest.ChannelSpec, [][]*core.Features, error) {
	var chans []core.FusedMonitorChannel
	var specs []ingest.ChannelSpec
	var feats [][]*core.Features
	for _, name := range names {
		ref, err := sigproc.LoadFile(expand(refPattern, name))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("channel %s reference: %w", name, err)
		}
		det, err := core.NewDetector(ref, core.Config{
			Sync: &core.DWMSynchronizer{Params: params},
			OCC:  core.OCCConfig{R: r},
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("channel %s: %w", name, err)
		}
		var chFeats []*core.Features
		for _, pat := range trainPatterns {
			s, err := sigproc.LoadFile(expand(pat, name))
			if err != nil {
				return nil, nil, nil, fmt.Errorf("channel %s training: %w", name, err)
			}
			f, err := det.Features(s)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("channel %s training: %w", name, err)
			}
			chFeats = append(chFeats, f)
		}
		if err := det.TrainFromFeatures(chFeats); err != nil {
			return nil, nil, nil, fmt.Errorf("channel %s training: %w", name, err)
		}
		th, err := det.Thresholds()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("channel %s: %w", name, err)
		}
		log.Printf("channel %s: %d lanes @ %.0f Hz, thresholds c_c=%.4g h_c=%.4g v_c=%.4g",
			name, ref.Channels(), ref.Rate, th.CC, th.HC, th.VC)
		chans = append(chans, core.FusedMonitorChannel{
			Name: name, Reference: ref, Params: params, Thresholds: th, Health: health,
		})
		specs = append(specs, ingest.ChannelSpec{Name: name, Lanes: ref.Channels(), Rate: ref.Rate})
		feats = append(feats, chFeats)
	}
	return chans, specs, feats, nil
}

func expand(pattern, channel string) string {
	if strings.Contains(pattern, "%s") {
		return fmt.Sprintf(pattern, channel)
	}
	return pattern
}

func splitNonEmpty(arg string) []string {
	var out []string
	for _, p := range strings.Split(arg, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
