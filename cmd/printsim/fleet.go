package main

// Fleet mode: printsim as a load generator. One process stands in for a
// whole plant floor — hundreds of concurrent replay clients, each a full
// ingest session with its own sensor seed, streaming mixed benign and
// attack prints (some with transport defects) at nsyncd. The
// summary line is machine-readable and the exit status encodes detection
// correctness: 0 only if every completed session's verdict matched the lane
// it was sent on, 2 if any verdict landed in the wrong lane, 1 on transport
// failure. Quota and shed rejections are counted, not failed — rejecting
// over-quota tenants is the server doing its job.

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"nsync/internal/experiment"
	"nsync/internal/ingest"
	"nsync/internal/printer"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
)

type fleetOptions struct {
	sessions     int // concurrent replay clients to run in total
	parallel     int // max clients in flight at once
	attackEvery  int // every Nth client streams the attack print (0 = none)
	defectEvery  int // every Nth client injects lossless transport defects
	tenants      int // spread clients across this many tenant ids
	frame        int
	priority     int
	tenant       string // tenant id, or prefix when tenants > 1
	model        string
	idPrefix     string
	backoff      time.Duration // base dial backoff (see ReplayOptions.DialBackoff)
	maxDials     int           // total connection attempts per session
	peers        []string      // fleet peer addresses (see ReplayOptions.Peers)
	maxRedirects int           // redirect budget per session (see ReplayOptions.MaxRedirects)
}

// fleetResult is one client's outcome.
type fleetResult struct {
	ok, wrong     bool
	quotaRejected bool
	shedRejected  bool
	err           error
	finishLatency time.Duration
	redirects     int
	stateLost     int
}

// runFleet replays opt.sessions concurrent sessions against addr: client i
// uses seed baseSeed+i, streams the attack trace on every attackEvery-th
// lane, and injects seeded lossless defects on every defectEvery-th.
func runFleet(benign, attack *printer.Trace, channels []sensor.Channel, scale experiment.Scale, baseSeed int64, addr string, opt fleetOptions) error {
	if opt.parallel <= 0 {
		opt.parallel = 64
	}
	if opt.tenants <= 0 {
		opt.tenants = 1
	}
	if opt.idPrefix == "" {
		opt.idPrefix = "fleet"
	}
	fmt.Printf("fleet: %d sessions (parallel %d) -> %s\n", opt.sessions, opt.parallel, addr)

	results := make([]fleetResult, opt.sessions)
	sem := make(chan struct{}, opt.parallel)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opt.sessions; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = fleetClient(benign, attack, channels, scale, baseSeed, addr, opt, i)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var ok, wrong, quota, shed, errs, redirects, stateLost int
	var firstErr error
	var latencies []time.Duration
	for _, r := range results {
		redirects += r.redirects
		stateLost += r.stateLost
		switch {
		case r.ok:
			ok++
			latencies = append(latencies, r.finishLatency)
		case r.wrong:
			wrong++
			latencies = append(latencies, r.finishLatency)
		case r.quotaRejected:
			quota++
		case r.shedRejected:
			shed++
		default:
			errs++
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	p99 := time.Duration(0)
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		p99 = latencies[len(latencies)*99/100]
	}
	fmt.Printf("fleet: sessions=%d ok=%d wrong=%d rejected_quota=%d rejected_shed=%d errors=%d p99_ms=%.1f elapsed=%.1fs redirects=%d state_lost=%d\n",
		opt.sessions, ok, wrong, quota, shed, errs, float64(p99.Microseconds())/1000, elapsed.Seconds(), redirects, stateLost)
	if wrong > 0 {
		fmt.Printf("fleet: %d sessions produced wrong-lane verdicts\n", wrong)
		os.Exit(2)
	}
	if errs > 0 {
		return fmt.Errorf("%d sessions failed in transport, first: %w", errs, firstErr)
	}
	return nil
}

// fleetClient runs one replay session and classifies its outcome.
func fleetClient(benign, attack *printer.Trace, channels []sensor.Channel, scale experiment.Scale, baseSeed int64, addr string, opt fleetOptions, i int) fleetResult {
	seed := baseSeed + int64(i)
	tr, expectIntrusion := benign, false
	if opt.attackEvery > 0 && i%opt.attackEvery == 0 && attack != nil {
		tr, expectIntrusion = attack, true
	}
	var signals []*sigproc.Signal
	var specs []ingest.ChannelSpec
	for _, ch := range channels {
		sig, err := sensor.Acquire(tr, ch, scale.Sensor, seed)
		if err != nil {
			return fleetResult{err: err}
		}
		signals = append(signals, sig)
		specs = append(specs, ingest.ChannelSpec{Name: ch.String(), Lanes: sig.Channels(), Rate: sig.Rate})
	}
	tenant := opt.tenant
	if opt.tenants > 1 {
		prefix := opt.tenant
		if prefix == "" {
			prefix = "tenant-"
		}
		tenant = fmt.Sprintf("%s%d", prefix, i%opt.tenants)
	}
	ropt := ingest.ReplayOptions{
		FrameSamples: opt.frame, Seed: seed,
		Timeout:     60 * time.Second,
		DialBackoff: opt.backoff, MaxDials: opt.maxDials,
		Peers: opt.peers, MaxRedirects: opt.maxRedirects,
		Stats: &ingest.ReplayStats{},
	}
	if opt.defectEvery > 0 && i%opt.defectEvery == 0 {
		ropt.ShuffleWindow = 6
		ropt.DupProb = 0.1
		ropt.ReconnectAfter = 23
	}
	hello := ingest.Hello{
		SessionID: fmt.Sprintf("%s-%04d", opt.idPrefix, i),
		Priority:  opt.priority,
		Channels:  specs,
		Tenant:    tenant,
		Model:     opt.model,
	}
	v, err := ingest.Replay(addr, hello, signals, ropt)
	if err != nil {
		var se *ingest.ServerError
		if errors.As(err, &se) {
			switch {
			case containsAny(se.Msg, "quota"):
				return fleetResult{quotaRejected: true}
			case containsAny(se.Msg, "shed", "overloaded"):
				return fleetResult{shedRejected: true}
			}
		}
		return fleetResult{err: fmt.Errorf("%s: %w", hello.SessionID, err)}
	}
	if v.Intrusion != expectIntrusion {
		fmt.Printf("fleet: WRONG verdict for %s: intrusion=%v, lane expects %v\n", hello.SessionID, v.Intrusion, expectIntrusion)
		return fleetResult{wrong: true, finishLatency: ropt.Stats.FinishLatency,
			redirects: ropt.Stats.Redirects, stateLost: ropt.Stats.StateLost}
	}
	return fleetResult{ok: true, finishLatency: ropt.Stats.FinishLatency,
		redirects: ropt.Stats.Redirects, stateLost: ropt.Stats.StateLost}
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
