package nsync

// BenchmarkFleetLoad measures the ingest daemon as a fleet would load it:
// one Server serving one SharedPool model, with a wave of concurrent replay
// clients per benchmark op streaming mixed benign and attack prints. The
// reported metrics are the operator-facing fleet numbers — completed
// sessions per core-second, p99 verdict latency, and the shed rate — plus a
// wrong_verdicts count that must stay zero or the benchmark fails: a fleet
// throughput number earned by misclassifying lanes is not a throughput
// number.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/ingest"
	"nsync/internal/registry"
	"nsync/internal/sigproc"
)

const (
	// fleetWave is how many concurrent sessions one benchmark op replays.
	fleetWave = 32
	// fleetAttackEvery sends every Nth session down the attack lane.
	fleetAttackEvery = 4
)

// fleetBenchFixture is a small trained two-channel model plus canned
// observations, built once per process.
type fleetBenchFixture struct {
	model  *registry.Model
	specs  []ingest.ChannelSpec
	benign [][]*sigproc.Signal // per-variant, one signal per channel
	attack [][]*sigproc.Signal
}

var (
	fleetOnce sync.Once
	fleetFx   *fleetBenchFixture
	fleetErr  error
)

func fleetNoise(rng *rand.Rand, rate float64, lanes, n int) *sigproc.Signal {
	s := sigproc.New(rate, lanes, n)
	for l := 0; l < lanes; l++ {
		for i := 0; i < n; i++ {
			s.Data[l][i] = rng.NormFloat64()
		}
	}
	return s
}

func fleetPerturbed(rng *rand.Rand, ref *sigproc.Signal) *sigproc.Signal {
	s := ref.Clone()
	for l := range s.Data {
		for i := range s.Data[l] {
			s.Data[l][i] += 0.05 * rng.NormFloat64()
		}
	}
	return s
}

// fleetAttacked replaces the second half of a benign observation with
// uncorrelated 2-sigma noise — a substituted design deviating mid-print.
func fleetAttacked(rng *rand.Rand, ref *sigproc.Signal) *sigproc.Signal {
	s := fleetPerturbed(rng, ref)
	for l := range s.Data {
		for i := s.Len() / 2; i < s.Len(); i++ {
			s.Data[l][i] = 2 * rng.NormFloat64()
		}
	}
	return s
}

func newFleetFixture() (*fleetBenchFixture, error) {
	rng := rand.New(rand.NewSource(41))
	params := dwm.Params{TWin: 0.5, THop: 0.25, TExt: 0.2, TSigma: 0.1, Eta: 0.1}
	fx := &fleetBenchFixture{model: &registry.Model{K: 1}}
	layout := []struct {
		name  string
		lanes int
	}{{"ACC", 2}, {"MAG", 1}}
	var refs []*sigproc.Signal
	for _, ch := range layout {
		ref := fleetNoise(rng, 100, ch.lanes, 2000)
		det, err := core.NewDetector(ref, core.Config{
			Sync: &core.DWMSynchronizer{Params: params},
			OCC:  core.OCCConfig{R: 0.3},
		})
		if err != nil {
			return nil, err
		}
		var train []*sigproc.Signal
		for i := 0; i < 4; i++ {
			train = append(train, fleetPerturbed(rng, ref))
		}
		if err := det.Train(train); err != nil {
			return nil, err
		}
		th, err := det.Thresholds()
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
		fx.model.Channels = append(fx.model.Channels, registry.ChannelModel{
			Name: ch.name, Reference: ref, Params: params, Thresholds: th,
		})
		fx.specs = append(fx.specs, ingest.ChannelSpec{Name: ch.name, Lanes: ch.lanes, Rate: ref.Rate})
	}
	// A handful of canned observations, reused round-robin across the wave:
	// the fleet's cost is in serving, not in simulating distinct printers.
	for v := 0; v < 4; v++ {
		var sigs []*sigproc.Signal
		for _, ref := range refs {
			sigs = append(sigs, fleetPerturbed(rng, ref))
		}
		fx.benign = append(fx.benign, sigs)
	}
	for v := 0; v < 2; v++ {
		var sigs []*sigproc.Signal
		for _, ref := range refs {
			sigs = append(sigs, fleetAttacked(rng, ref))
		}
		fx.attack = append(fx.attack, sigs)
	}
	return fx, nil
}

func fleetFixture(b *testing.B) *fleetBenchFixture {
	b.Helper()
	fleetOnce.Do(func() { fleetFx, fleetErr = newFleetFixture() })
	if fleetErr != nil {
		b.Fatal(fleetErr)
	}
	return fleetFx
}

// fleetBenchResult is one session's outcome inside the benchmark.
type fleetBenchResult struct {
	ok, wrong, shed bool
	err             error
	latency         time.Duration
}

// BenchmarkFleetLoad replays fleetWave concurrent mixed sessions per op
// against one Server serving a SharedPool model, and reports
// sessions_per_core_sec, p99_verdict_ms, shed_rate, and wrong_verdicts.
func BenchmarkFleetLoad(b *testing.B) {
	fx := fleetFixture(b)
	pool := ingest.NewSharedPool(nil)
	if _, err := pool.Register(fx.model); err != nil {
		b.Fatal(err)
	}
	srv, err := ingest.NewServer(ingest.Config{
		Factory:       pool,
		ShedWatermark: 1 << 20, // shedding is not what this benchmark measures
		ReadTimeout:   30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // exits on Shutdown
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	addr := l.Addr().String()

	var total, ok, wrong, shed, errs int
	var firstErr error
	var latencies []time.Duration
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		results := make([]fleetBenchResult, fleetWave)
		var wg sync.WaitGroup
		for i := 0; i < fleetWave; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sigs, expect := fx.benign[i%len(fx.benign)], false
				if i%fleetAttackEvery == 0 {
					sigs, expect = fx.attack[i%len(fx.attack)], true
				}
				stats := &ingest.ReplayStats{}
				v, err := ingest.Replay(addr, ingest.Hello{
					SessionID: fmt.Sprintf("bench-%d-%04d", iter, i),
					Channels:  fx.specs,
					Tenant:    fmt.Sprintf("cell-%d", i%4),
				}, sigs, ingest.ReplayOptions{
					FrameSamples: 200, Seed: int64(iter*fleetWave + i),
					Timeout: 60 * time.Second, Stats: stats,
				})
				var se *ingest.ServerError
				switch {
				case errors.As(err, &se) && (strings.Contains(se.Msg, "shed") || strings.Contains(se.Msg, "overloaded")):
					results[i] = fleetBenchResult{shed: true}
				case err != nil:
					results[i] = fleetBenchResult{err: err}
				case v.Intrusion != expect:
					results[i] = fleetBenchResult{wrong: true, latency: stats.FinishLatency}
				default:
					results[i] = fleetBenchResult{ok: true, latency: stats.FinishLatency}
				}
			}(i)
		}
		wg.Wait()
		for _, r := range results {
			total++
			switch {
			case r.ok:
				ok++
				latencies = append(latencies, r.latency)
			case r.wrong:
				wrong++
				latencies = append(latencies, r.latency)
			case r.shed:
				shed++
			default:
				errs++
				if firstErr == nil {
					firstErr = r.err
				}
			}
		}
	}
	b.StopTimer()
	if errs > 0 {
		b.Fatalf("%d/%d sessions failed in transport, first: %v", errs, total, firstErr)
	}
	p99 := time.Duration(0)
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, c int) bool { return latencies[a] < latencies[c] })
		p99 = latencies[len(latencies)*99/100]
	}
	perCoreSec := 0.0
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		perCoreSec = float64(ok+wrong) / elapsed / float64(runtime.GOMAXPROCS(0))
	}
	p99ms := float64(p99.Microseconds()) / 1000
	shedRate := float64(shed) / float64(total)
	b.ReportMetric(perCoreSec, "sessions_per_core_sec")
	b.ReportMetric(float64(total), "sessions")
	b.ReportMetric(p99ms, "p99_verdict_ms")
	b.ReportMetric(shedRate, "shed_rate")
	b.ReportMetric(float64(wrong), "wrong_verdicts")
	if total <= 0 || perCoreSec <= 0 || p99ms <= 0 || shedRate < 0 || shedRate > 1 || wrong != 0 {
		b.Fatalf("sessions=%d sessions_per_core_sec=%g p99_verdict_ms=%g shed_rate=%g wrong_verdicts=%d: "+
			"want sessions, throughput and p99 measured (> 0), shed_rate in [0,1], and no wrong-lane verdicts",
			total, perCoreSec, p99ms, shedRate, wrong)
	}
}
