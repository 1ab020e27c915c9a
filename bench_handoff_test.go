package nsync

// BenchmarkFleetHandoffLatency measures what a coordinator-less drain costs
// the clients that live through it: a two-peer fleet serves a wave of
// concurrent mixed sessions, peer 0 drains via HandoffAll mid-wave, and
// every session it migrates reconnects to the successor and resumes. The
// reported p99_pause_ms is the longest client-observed stream stall across
// the handoff (dial start to handshake complete on the new peer), and
// wrong_verdicts — which must stay zero or the benchmark fails — asserts
// that migration never changes a verdict: a fast drain that flips lanes is
// a correctness bug wearing a latency number.

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"nsync/internal/ingest"
)

const (
	// handoffWave is how many concurrent sessions stream across the drain.
	handoffWave = 32
	// handoffAttackEvery sends every Nth session down the attack lane.
	handoffAttackEvery = 4
	// handoffDrainAt triggers the drain once peer 0 holds this many live
	// sessions, so the handoff races real mid-stream traffic.
	handoffDrainAt = 4
)

// handoffWaveResult aggregates one benchmark op's wave.
type handoffWaveResult struct {
	migrated, failed int
	ok, wrong, errs  int
	firstErr         error
	pauses           []time.Duration
}

func runHandoffWave(b *testing.B, fx *fleetBenchFixture, iter int) handoffWaveResult {
	b.Helper()
	listeners := make([]net.Listener, 2)
	peers := make([]string, 2)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = l
		peers[i] = l.Addr().String()
	}
	servers := make([]*ingest.Server, 2)
	clusters := make([]*ingest.Cluster, 2)
	for i := range servers {
		pool := ingest.NewSharedPool(nil)
		if _, err := pool.Register(fx.model); err != nil {
			b.Fatal(err)
		}
		cl, err := ingest.NewCluster(ingest.ClusterConfig{
			Peers: peers, PeerID: i, ProbeInterval: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := ingest.NewServer(ingest.Config{
			Factory: pool, Cluster: cl,
			ShedWatermark: 1 << 20, // shedding is not what this benchmark measures
			ReadTimeout:   30 * time.Second,
			Retention:     time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		cl.Bind(srv, pool)
		servers[i], clusters[i] = srv, cl
		go srv.Serve(listeners[i]) //nolint:errcheck // exits on Shutdown
	}
	defer func() {
		for i := range servers {
			clusters[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := servers[i].Shutdown(ctx); err != nil {
				b.Error(err)
			}
			cancel()
		}
	}()

	type outcome struct {
		wrong bool
		err   error
		pause time.Duration
	}
	results := make([]outcome, handoffWave)
	var wg sync.WaitGroup
	for i := 0; i < handoffWave; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sigs, expect := fx.benign[i%len(fx.benign)], false
			if i%handoffAttackEvery == 0 {
				sigs, expect = fx.attack[i%len(fx.attack)], true
			}
			stats := &ingest.ReplayStats{}
			v, err := ingest.Replay("", ingest.Hello{
				SessionID: fmt.Sprintf("handoff-%d-%04d", iter, i),
				Channels:  fx.specs,
			}, sigs, ingest.ReplayOptions{
				// Small paced frames hold each session mid-stream for a few
				// hundred milliseconds, so the drain below always races live
				// traffic instead of an already-finished wave.
				FrameSamples: 25, FramePause: time.Millisecond,
				Seed:  int64(iter*handoffWave + i),
				Peers: peers, MaxDials: 20, MaxRedirects: 12,
				DialBackoff: 5 * time.Millisecond,
				Timeout:     60 * time.Second, Stats: stats,
			})
			switch {
			case err != nil:
				results[i] = outcome{err: err}
			case v.Intrusion != expect:
				results[i] = outcome{wrong: true, pause: stats.MaxReconnectPause}
			default:
				results[i] = outcome{pause: stats.MaxReconnectPause}
			}
		}(i)
	}

	// Drain peer 0 the moment it holds a few live sessions: the handoff then
	// races genuinely mid-stream traffic, which is the pause being measured.
	deadline := time.Now().Add(30 * time.Second)
	for servers[0].SessionCount() < handoffDrainAt && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	var res handoffWaveResult
	res.migrated, res.failed = clusters[0].HandoffAll(context.Background())
	wg.Wait()

	for _, r := range results {
		switch {
		case r.err != nil:
			res.errs++
			if res.firstErr == nil {
				res.firstErr = r.err
			}
		case r.wrong:
			res.wrong++
		default:
			res.ok++
		}
		if r.pause > 0 {
			res.pauses = append(res.pauses, r.pause)
		}
	}
	return res
}

// BenchmarkFleetHandoffLatency reports migrated_sessions, failed_handoffs,
// p99_pause_ms across the clients that reconnected through the drain, and a
// wrong_verdicts count that must be zero.
func BenchmarkFleetHandoffLatency(b *testing.B) {
	fx := fleetFixture(b)
	var migrated, failed, wrong, errs, total int
	var firstErr error
	var pauses []time.Duration
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		res := runHandoffWave(b, fx, iter)
		migrated += res.migrated
		failed += res.failed
		wrong += res.wrong
		errs += res.errs
		total += handoffWave
		if firstErr == nil {
			firstErr = res.firstErr
		}
		pauses = append(pauses, res.pauses...)
	}
	b.StopTimer()
	if errs > 0 {
		b.Fatalf("%d/%d sessions failed in transport across the drain, first: %v", errs, total, firstErr)
	}
	if migrated == 0 {
		b.Fatal("the drain never migrated a session; the benchmark measured nothing")
	}
	p99 := time.Duration(0)
	if len(pauses) > 0 {
		sort.Slice(pauses, func(a, c int) bool { return pauses[a] < pauses[c] })
		p99 = pauses[len(pauses)*99/100]
	}
	n := float64(b.N)
	b.ReportMetric(float64(migrated)/n, "migrated_sessions")
	b.ReportMetric(float64(failed)/n, "failed_handoffs")
	b.ReportMetric(float64(p99.Microseconds())/1000, "p99_pause_ms")
	b.ReportMetric(float64(wrong), "wrong_verdicts")
	if failed < 0 || wrong != 0 {
		b.Fatalf("failed_handoffs=%d wrong_verdicts=%d: want a count (>= 0) and no verdict changed by migration", failed, wrong)
	}
}
