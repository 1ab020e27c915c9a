package nsync

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section at CI scale (DESIGN.md §3-4) and reports the headline
// numbers as benchmark metrics. Results are memoized per process, so
// additional b.N iterations are cheap; the interesting output is the
// ReportMetric values and the EXPERIMENTS.md discussion.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// or a single artifact:
//
//	go test -bench=BenchmarkTable8NSYNCDWM -benchmem

import (
	"fmt"
	"sync"
	"testing"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/experiment"
	"nsync/internal/ids"
	"nsync/internal/printer"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
	"nsync/internal/tde"
)

// benchSeed anchors the CI-scale datasets used by every benchmark.
const benchSeed = 1000

var (
	benchOnce sync.Once
	benchDS   map[string]*experiment.Dataset
	benchErr  error
)

func benchDatasets(b *testing.B) map[string]*experiment.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS = make(map[string]*experiment.Dataset, 2)
		for _, prof := range experiment.Profiles() {
			ds, err := experiment.GenerateCached(experiment.CI(), prof, benchSeed)
			if err != nil {
				benchErr = err
				return
			}
			benchDS[prof.Name] = ds
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// memo caches expensive table results across benchmark iterations.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (m *memo[T]) get(b *testing.B, f func() (T, error)) T {
	b.Helper()
	m.once.Do(func() { m.val, m.err = f() })
	if m.err != nil {
		b.Fatal(m.err)
	}
	return m.val
}

var (
	memoT5  memo[[]experiment.Table5Row]
	memoT6  memo[[]experiment.Table6Row]
	memoT7  memo[[]experiment.Table7Row]
	memoT8  memo[[]experiment.Table8Row]
	memoT9  memo[[]experiment.Table8Row]
	memoBel memo[[]experiment.BelikovetskyResult]
)

// BenchmarkFig1TimeNoise regenerates Fig. 1: repeated benign prints end at
// different times. Reports the absolute and relative end-time spread.
func BenchmarkFig1TimeNoise(b *testing.B) {
	var spread, rel float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure1(experiment.CI(), printer.UM3(), 3, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		spread, rel = res.Spread, res.RelativeSpread
	}
	b.ReportMetric(spread, "spread_s")
	b.ReportMetric(rel*100, "spread_pct")
}

// BenchmarkFig2NoSyncDistances regenerates Fig. 2: without DSYNC, benign
// correlation distances become as large as malicious ones.
func BenchmarkFig2NoSyncDistances(b *testing.B) {
	dss := benchDatasets(b)
	var benignMax, maliciousMax float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure2(dss["UM3"], sensor.ACC)
		if err != nil {
			b.Fatal(err)
		}
		benignMax, maliciousMax = res.BenignMax, res.MaliciousMax
	}
	b.ReportMetric(benignMax, "benign_max")
	b.ReportMetric(maliciousMax, "malicious_max")
}

// BenchmarkFig6ParamSweep regenerates Fig. 6's t_win sweep and reports the
// h_disp roughness at the smallest and the selected window size.
func BenchmarkFig6ParamSweep(b *testing.B) {
	dss := benchDatasets(b)
	var roughSmall, roughChosen float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure6(dss["UM3"], sensor.ACC, "twin", []float64{0.5, 4.0})
		if err != nil {
			b.Fatal(err)
		}
		roughSmall, roughChosen = rows[0].Roughness, rows[1].Roughness
	}
	b.ReportMetric(roughSmall, "rough_t0.5")
	b.ReportMetric(roughChosen, "rough_t4")
}

// BenchmarkFig10Consistency regenerates Fig. 10 and reports the h_disp
// consistency of AUD raw (strongly correlated) and PWR raw (weakly
// correlated) against ACC raw.
func BenchmarkFig10Consistency(b *testing.B) {
	dss := benchDatasets(b)
	var audRaw, pwrRaw, eptRaw, eptSpec float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure10(dss["UM3"])
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch {
			case r.Channel == sensor.AUD && r.Transform == ids.Raw:
				audRaw = r.Consistency
			case r.Channel == sensor.PWR && r.Transform == ids.Raw:
				pwrRaw = r.Consistency
			case r.Channel == sensor.EPT && r.Transform == ids.Raw:
				eptRaw = r.Consistency
			case r.Channel == sensor.EPT && r.Transform == ids.Spectro:
				eptSpec = r.Consistency
			}
		}
	}
	b.ReportMetric(audRaw, "aud_raw")
	b.ReportMetric(pwrRaw, "pwr_raw")
	b.ReportMetric(eptRaw, "ept_raw")
	b.ReportMetric(eptSpec, "ept_spectro")
}

// BenchmarkFig11TimeRatio regenerates Fig. 11: seconds of processing per
// second of spectrogram for DWM, FastDTW, and exact DTW.
func BenchmarkFig11TimeRatio(b *testing.B) {
	dss := benchDatasets(b)
	ratios := map[string]float64{}
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure11(dss["UM3"])
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			ratios[r.Synchronizer] = r.TimeRatio
		}
	}
	b.ReportMetric(ratios["dwm"]*1000, "dwm_ms_per_s")
	b.ReportMetric(ratios["dtw"]*1000, "fastdtw_ms_per_s")
	b.ReportMetric(ratios["dtw-exact"]*1000, "exactdtw_ms_per_s")
}

// BenchmarkTable5MooreGao regenerates Table V and reports the average
// accuracy of the two no/coarse-DSYNC IDSs.
func BenchmarkTable5MooreGao(b *testing.B) {
	dss := benchDatasets(b)
	var moore, gao float64
	for i := 0; i < b.N; i++ {
		rows := memoT5.get(b, func() ([]experiment.Table5Row, error) { return experiment.Table5(dss) })
		var ms, gs float64
		n := 0
		for _, r := range rows {
			if r.Channel == sensor.EPT && r.Transform == ids.Raw {
				continue
			}
			ms += r.Moore.Accuracy()
			gs += r.Gao.Accuracy()
			n++
		}
		moore, gao = ms/float64(n), gs/float64(n)
	}
	b.ReportMetric(moore, "moore_acc")
	b.ReportMetric(gao, "gao_acc")
}

// BenchmarkTable6Bayens regenerates Table VI and reports Bayens' average
// accuracy.
func BenchmarkTable6Bayens(b *testing.B) {
	dss := benchDatasets(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		rows := memoT6.get(b, func() ([]experiment.Table6Row, error) { return experiment.Table6(dss) })
		var sum float64
		for _, r := range rows {
			sum += r.Overall.Accuracy()
		}
		acc = sum / float64(len(rows))
	}
	b.ReportMetric(acc, "bayens_acc")
}

// BenchmarkTable7Gatlin regenerates Table VII and reports Gatlin's average
// accuracy.
func BenchmarkTable7Gatlin(b *testing.B) {
	dss := benchDatasets(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		rows := memoT7.get(b, func() ([]experiment.Table7Row, error) { return experiment.Table7(dss) })
		var sum float64
		for _, r := range rows {
			sum += r.Overall.Accuracy()
		}
		acc = sum / float64(len(rows))
	}
	b.ReportMetric(acc, "gatlin_acc")
}

// BenchmarkBelikovetsky regenerates the Section VIII-C prose results.
func BenchmarkBelikovetsky(b *testing.B) {
	dss := benchDatasets(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		rows := memoBel.get(b, func() ([]experiment.BelikovetskyResult, error) { return experiment.Belikovetsky(dss) })
		var sum float64
		for _, r := range rows {
			sum += r.Outcome.Accuracy()
		}
		acc = sum / float64(len(rows))
	}
	b.ReportMetric(acc, "belikovetsky_acc")
}

// BenchmarkTable8NSYNCDWM regenerates Table VIII and reports NSYNC/DWM's
// average accuracy, FPR, and TPR (raw EPT excluded, as in the paper).
func BenchmarkTable8NSYNCDWM(b *testing.B) {
	dss := benchDatasets(b)
	var acc, fpr, tpr float64
	for i := 0; i < b.N; i++ {
		rows := memoT8.get(b, func() ([]experiment.Table8Row, error) { return experiment.Table8(dss) })
		var as, fs, ts float64
		n := 0
		for _, r := range rows {
			if r.Channel == sensor.EPT && r.Transform == ids.Raw {
				continue
			}
			as += r.Result.Overall.Accuracy()
			fs += r.Result.Overall.FPR()
			ts += r.Result.Overall.TPR()
			n++
		}
		acc, fpr, tpr = as/float64(n), fs/float64(n), ts/float64(n)
	}
	b.ReportMetric(acc, "nsync_dwm_acc")
	b.ReportMetric(fpr, "fpr")
	b.ReportMetric(tpr, "tpr")
}

// BenchmarkTable9NSYNCDTW regenerates Table IX (NSYNC with FastDTW on
// spectrograms).
func BenchmarkTable9NSYNCDTW(b *testing.B) {
	dss := benchDatasets(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		rows := memoT9.get(b, func() ([]experiment.Table8Row, error) { return experiment.Table9(dss) })
		var sum float64
		for _, r := range rows {
			sum += r.Result.Overall.Accuracy()
		}
		acc = sum / float64(len(rows))
	}
	b.ReportMetric(acc, "nsync_dtw_acc")
}

// BenchmarkFig12OverallAccuracy assembles Fig. 12 from all table results
// and reports the NSYNC/DWM headline accuracy alongside the weakest IDS.
func BenchmarkFig12OverallAccuracy(b *testing.B) {
	dss := benchDatasets(b)
	var dwmAcc, worst float64
	for i := 0; i < b.N; i++ {
		t5 := memoT5.get(b, func() ([]experiment.Table5Row, error) { return experiment.Table5(dss) })
		t6 := memoT6.get(b, func() ([]experiment.Table6Row, error) { return experiment.Table6(dss) })
		bel := memoBel.get(b, func() ([]experiment.BelikovetskyResult, error) { return experiment.Belikovetsky(dss) })
		t7 := memoT7.get(b, func() ([]experiment.Table7Row, error) { return experiment.Table7(dss) })
		t8 := memoT8.get(b, func() ([]experiment.Table8Row, error) { return experiment.Table8(dss) })
		t9 := memoT9.get(b, func() ([]experiment.Table8Row, error) { return experiment.Table9(dss) })
		fig := experiment.Figure12(t5, t6, bel, t7, t8, t9)
		worst = 1
		for _, r := range fig {
			if r.IDS == "NSYNC/DWM (T)" {
				dwmAcc = r.Accuracy
			}
			if r.Accuracy < worst {
				worst = r.Accuracy
			}
		}
	}
	b.ReportMetric(dwmAcc, "nsync_dwm_acc")
	b.ReportMetric(worst, "worst_ids_acc")
}

// ---- Ablation benchmarks (DESIGN.md §5) ----

// ablationFeatures runs NSYNC/DWM on UM3 ACC raw with a configurable
// synchronizer and returns (benign accuracy proxy) FPR/TPR.
func ablationOutcome(b *testing.B, sync core.Synchronizer) experiment.NSYNCOutcome {
	b.Helper()
	dss := benchDatasets(b)
	out, err := experiment.EvaluateNSYNC(dss["UM3"], sensor.ACC, ids.Raw, sync, experiment.CI().OCCMarginNSYNC)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkAblationTDEBBias compares DWM with and without the TDEB Gaussian
// bias (the paper's Fig. 5 motivation).
func BenchmarkAblationTDEBBias(b *testing.B) {
	params := experiment.CI().DWM["UM3"]
	var withBias, withoutBias float64
	for i := 0; i < b.N; i++ {
		withBias = ablationOutcome(b, &core.DWMSynchronizer{Params: params}).Overall.Accuracy()
		withoutBias = ablationOutcome(b, &core.DWMSynchronizer{
			Params: params, Opts: []dwm.Option{dwm.WithoutBias()},
		}).Overall.Accuracy()
	}
	b.ReportMetric(withBias, "with_bias_acc")
	b.ReportMetric(withoutBias, "without_bias_acc")
}

// BenchmarkAblationInertia compares eta = 0.1 (the paper's default inertia)
// against eta = 0 (no low-frequency tracking, Eq. 12 disabled: h_low stays
// 0 and the search window never re-centers).
func BenchmarkAblationInertia(b *testing.B) {
	params := experiment.CI().DWM["UM3"]
	noInertia := params
	noInertia.Eta = 0
	var withEta, withoutEta float64
	for i := 0; i < b.N; i++ {
		withEta = ablationOutcome(b, &core.DWMSynchronizer{Params: params}).Overall.Accuracy()
		withoutEta = ablationOutcome(b, &core.DWMSynchronizer{Params: noInertia}).Overall.Accuracy()
	}
	b.ReportMetric(withEta, "eta0.1_acc")
	b.ReportMetric(withoutEta, "eta0_acc")
}

// BenchmarkAblationSpikeFilter compares the min-filter spike suppression of
// Eqs. (21)-(22) against no filtering, measured as the benign false
// positive rate of the v_dist sub-module.
func BenchmarkAblationSpikeFilter(b *testing.B) {
	dss := benchDatasets(b)
	ds := dss["UM3"]
	params := experiment.CI().DWM["UM3"]
	fprFor := func(filterN int) float64 {
		refSig, err := ds.Ref.Signal(sensor.ACC, ids.Raw)
		if err != nil {
			b.Fatal(err)
		}
		det, err := core.NewDetector(refSig, core.Config{
			Sync:         &core.DWMSynchronizer{Params: params},
			FilterWindow: filterN,
			OCC:          core.OCCConfig{R: experiment.CI().OCCMarginNSYNC},
			SubModules:   []core.SubModule{core.SubVDist},
		})
		if err != nil {
			b.Fatal(err)
		}
		var train []*sigproc.Signal
		for _, r := range ds.Train {
			s, err := r.Signal(sensor.ACC, ids.Raw)
			if err != nil {
				b.Fatal(err)
			}
			train = append(train, s)
		}
		if err := det.Train(train); err != nil {
			b.Fatal(err)
		}
		fp := 0
		for _, r := range ds.TestBenign {
			s, err := r.Signal(sensor.ACC, ids.Raw)
			if err != nil {
				b.Fatal(err)
			}
			v, err := det.Classify(s)
			if err != nil {
				b.Fatal(err)
			}
			if v.Intrusion {
				fp++
			}
		}
		return float64(fp) / float64(len(ds.TestBenign))
	}
	var filtered, unfiltered float64
	for i := 0; i < b.N; i++ {
		filtered = fprFor(core.DefaultFilterWindow)
		unfiltered = fprFor(-1) // negative disables the min filter
	}
	b.ReportMetric(filtered, "fpr_filtered")
	b.ReportMetric(unfiltered, "fpr_unfiltered")
}

// BenchmarkAblationChannelAvg compares channel-averaged correlation TDE
// (the paper's Section V-B choice) against stacked-channel correlation,
// measured as DWM self-synchronization quality across two benign runs.
func BenchmarkAblationChannelAvg(b *testing.B) {
	dss := benchDatasets(b)
	ds := dss["UM3"]
	ref, err := ds.Ref.Signal(sensor.ACC, ids.Raw)
	if err != nil {
		b.Fatal(err)
	}
	obs, err := ds.TestBenign[0].Signal(sensor.ACC, ids.Raw)
	if err != nil {
		b.Fatal(err)
	}
	params := experiment.CI().DWM["UM3"]
	roughness := func(opts ...dwm.Option) float64 {
		res, err := dwm.Run(obs, ref, params, opts...)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for i := 1; i < len(res.HDisp); i++ {
			d := float64(res.HDisp[i] - res.HDisp[i-1])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum / float64(len(res.HDisp)-1)
	}
	var averaged, stacked float64
	for i := 0; i < b.N; i++ {
		averaged = roughness()
		stacked = roughness(dwm.WithEstimator(tde.New(tde.WithStackedChannels())))
	}
	b.ReportMetric(averaged, "rough_averaged")
	b.ReportMetric(stacked, "rough_stacked")
}

// ---- Continuous operations (experiment/drift.go) ----

// driftRecoveryTolerance is how far above the fresh-retrain FPR floor the
// re-baselined detector may end the drift sweep (matches TestDriftRecovery).
const driftRecoveryTolerance = 0.25

// BenchmarkDriftSweepACC regenerates the sensor-drift decay table (repro
// -drift) for UM3 ACC: a frozen detector, the rolling re-baselined
// detector, and a freshly retrained floor, classified across a drifting
// print sequence. The reported metrics are the final-print false-positive
// rates — the decay the frozen detector suffers and the recovery
// re-baselining buys back. The benchmark fails unless the re-baselined FPR
// ends within driftRecoveryTolerance of the fresh floor, so a silent
// guardrail or blending regression fails CI.
//
// Prints is pinned at 5: the combined aging scenario decays the frozen
// detector visibly by then while the re-baselined one still tracks the
// fresh floor; past that, even retraining cannot fully absorb the drift at
// CI scale, and the recovery margin stops being a meaningful assertion.
func BenchmarkDriftSweepACC(b *testing.B) {
	ds := benchDatasets(b)["UM3"]
	const prints = 5
	var last experiment.DriftRow
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Drift(map[string]*experiment.Dataset{"UM3": ds},
			experiment.DriftConfig{Prints: prints})
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1]
	}
	rebased := last.Rebased.FPR()
	b.ReportMetric(float64(prints), "prints")
	b.ReportMetric(last.Frozen.FPR(), "frozen_final_fpr")
	b.ReportMetric(rebased, "rebased_final_fpr")
	b.ReportMetric(last.FreshFPR, "fresh_final_fpr")
	if rebased > last.FreshFPR+driftRecoveryTolerance {
		b.Fatalf("rebased final FPR %.2f exceeds fresh floor %.2f by more than %.2f — re-baselining is not recovering drift",
			rebased, last.FreshFPR, driftRecoveryTolerance)
	}
}

// ---- Parallel evaluation engine (experiment/engine.go) ----

// benchEvaluateNSYNC times one synchronization-heavy workload — the
// NSYNC/DWM evaluation of UM3 ACC raw, one Table VIII cell — at a fixed
// worker count. An un-timed warm-up evaluation fills every lazy per-run
// cache first, so the Serial/Parallel pair isolates the worker pool: their
// time ratio is the engine's speedup. The results themselves are identical
// at every worker count (TestWorkerCountDeterminism).
//
// workers must be explicit (>= 1). An earlier harness benchmarked the
// parallel variant with workers = 0 ("resolve to GOMAXPROCS"), which on a
// single-core CI runner silently resolved to 1: the "parallel" row both ran
// serially and recorded workers: 1, so the scaling curve was never
// actually measured. Requesting concrete counts keeps the recorded workers
// value honest even when the machine has fewer cores (the rows then
// measure oversubscription rather than silently collapsing into duplicates
// of the serial row).
func benchEvaluateNSYNC(b *testing.B, workers int) {
	b.Helper()
	if workers < 1 {
		b.Fatalf("benchEvaluateNSYNC: workers must be explicit and >= 1, got %d", workers)
	}
	ds := benchDatasets(b)["UM3"]
	params := experiment.CI().DWM["UM3"]
	eval := func() experiment.NSYNCOutcome {
		out, err := experiment.EvaluateNSYNC(ds, sensor.ACC, ids.Raw,
			&core.DWMSynchronizer{Params: params}, experiment.CI().OCCMarginNSYNC)
		if err != nil {
			b.Fatal(err)
		}
		return out
	}
	experiment.SetWorkers(workers)
	defer experiment.SetWorkers(0)
	eval() // warm-up, un-timed
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc = eval().Overall.Accuracy()
	}
	windows := evalWindows(b, ds)
	b.ReportMetric(acc, "acc")
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(windows), "windows_per_op")
	if windows <= 0 {
		b.Fatalf("windows_per_op=%d: the evaluation synchronized nothing, so its throughput is not measured", windows)
	}
}

// evalWindows counts the DWM windows one EvaluateNSYNC op synchronizes:
// every training and test run of the benchmarked cell, so windows_per_op
// over ns/op gives a windows-per-second throughput per worker count.
func evalWindows(b *testing.B, ds *experiment.Dataset) int {
	b.Helper()
	params := experiment.CI().DWM["UM3"]
	ref, err := ds.Ref.Signal(sensor.ACC, ids.Raw)
	if err != nil {
		b.Fatal(err)
	}
	s, err := dwm.NewSynchronizer(ref, params)
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, runs := range [][]*ids.Run{ds.Train, ds.TestBenign, ds.TestMalicious} {
		for _, r := range runs {
			sig, err := r.Signal(sensor.ACC, ids.Raw)
			if err != nil {
				b.Fatal(err)
			}
			total += s.NumWindows(sig.Len())
		}
	}
	return total
}

func BenchmarkEvaluateNSYNCSerial(b *testing.B) { benchEvaluateNSYNC(b, 1) }

// BenchmarkEvaluateNSYNCParallel sweeps explicit worker counts so the
// recorded scaling curve has one honestly-labelled row per count.
func BenchmarkEvaluateNSYNCParallel(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchEvaluateNSYNC(b, w) })
	}
}

// BenchmarkDWMSyncRawAudio measures the raw synchronization throughput that
// makes real-time NSYNC possible: seconds of 2-channel raw audio, and DWM
// windows, synchronized per benchmark op.
func BenchmarkDWMSyncRawAudio(b *testing.B) {
	dss := benchDatasets(b)
	ds := dss["UM3"]
	ref, err := ds.Ref.Signal(sensor.AUD, ids.Raw)
	if err != nil {
		b.Fatal(err)
	}
	obs, err := ds.TestBenign[0].Signal(sensor.AUD, ids.Raw)
	if err != nil {
		b.Fatal(err)
	}
	params := experiment.CI().DWM["UM3"]
	s, err := dwm.NewSynchronizer(ref, params)
	if err != nil {
		b.Fatal(err)
	}
	windows := s.NumWindows(obs.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dwm.Run(obs, ref, params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(windows), "windows_per_op")
	b.ReportMetric(obs.Duration(), "signal_s_per_op")
	if windows <= 0 {
		b.Fatalf("windows_per_op=%d: DWM synchronized nothing, so its throughput is not measured", windows)
	}
}
