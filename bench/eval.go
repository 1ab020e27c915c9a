package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nsync/internal/core"
	"nsync/internal/experiment"
	"nsync/internal/ids"
	"nsync/internal/sigproc"
)

// evalDataset is the roster one Table VIII pass evaluates: the reference,
// the first three training prints, one benign and one attack test print.
// It keeps a pass to a few seconds, so a run holds more than one.
func evalDataset(ds *experiment.Dataset) *experiment.Dataset {
	sub := *ds
	sub.Train = ds.Train[:3]
	sub.TestBenign = ds.TestBenign[:1]
	sub.TestMalicious = ds.TestMalicious[:1]
	return &sub
}

func evalRuns(ds *experiment.Dataset) []*ids.Run {
	runs := append([]*ids.Run{ds.Ref}, ds.Train...)
	runs = append(runs, ds.TestBenign...)
	return append(runs, ds.TestMalicious...)
}

// dropSpectrograms makes the next pass pay every STFT, as a fresh
// cmd/repro process does.
func dropSpectrograms(ds *experiment.Dataset) {
	for _, r := range evalRuns(ds) {
		r.DropSpectroCache()
	}
}

// passPrintSeconds is the simulated print time one pass synchronizes:
// every training and test print, once per cell.
func passPrintSeconds(ds *experiment.Dataset) float64 {
	var s float64
	for _, r := range evalRuns(ds)[1:] {
		s += r.Duration
	}
	return s * float64(len(table8Cells()))
}

// evalPass is one cold experiment.Table8 pass.
type evalPass struct {
	rows      []experiment.Table8Row
	start     time.Time
	wall, cpu time.Duration
}

// runEvalPasses runs cold passes back to back until the window has passed.
func runEvalPasses(ds *experiment.Dataset, window time.Duration) ([]evalPass, error) {
	var out []evalPass
	start := time.Now()
	for time.Since(start) < window {
		p, err := runEvalPass(ds)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func runEvalPass(ds *experiment.Dataset) (evalPass, error) {
	dropSpectrograms(ds)
	t, cpu0 := time.Now(), cpuTime()
	rows, err := experiment.Table8(map[string]*experiment.Dataset{ds.Printer: ds})
	return evalPass{rows: rows, start: t, wall: time.Since(t), cpu: cpuTime() - cpu0}, err
}

// cell is one Table VIII cell, in the order Table8 emits rows.
type cell struct {
	tf ids.Transform
	ch int // index into experiment.EvalChannels
}

func table8Cells() []cell {
	var out []cell
	for _, tf := range experiment.Transforms {
		for ch := range experiment.EvalChannels {
			out = append(out, cell{tf, ch})
		}
	}
	return out
}

// decompose recomputes every Table VIII row through the public layer
// functions — cold STFT, DWM synchronization, feature extraction, OCC
// threshold learning and detection — with workers cells at a time. It is
// the oracle the pass rows are checked against, and, run serially under a
// tracer, the per-layer decomposition of a pass.
func decompose(ds *experiment.Dataset, workers int, tr *tracer) ([]experiment.Table8Row, error) {
	dropSpectrograms(ds)
	cells := table8Cells()
	rows := make([]experiment.Table8Row, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rows[i], errs[i] = cellRow(ds, c, tr)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func cellRow(ds *experiment.Dataset, c cell, tr *tracer) (experiment.Table8Row, error) {
	ch := experiment.EvalChannels[c.ch]
	row := experiment.Table8Row{Printer: ds.Printer, Transform: c.tf, Channel: ch}
	log := tr.log(fmt.Sprintf("%s/%v/%v", ds.Printer, c.tf, ch))
	defer log.close()
	root := log.begin("eval.cell", -1, time.Now())
	defer func() { log.end(root, time.Now()) }()

	signal := func(r *ids.Run) (*sigproc.Signal, error) {
		t := time.Now()
		s, err := r.Signal(ch, c.tf)
		if c.tf == ids.Spectro {
			log.add("stft.transform", root, t, time.Now())
		}
		return s, err
	}
	ref, err := signal(ds.Ref)
	if err != nil {
		return row, err
	}
	syncer := &core.DWMSynchronizer{Params: ds.Scale.DWM[ds.Printer]}
	features := func(r *ids.Run) (*core.Features, error) {
		obs, err := signal(r)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		al, err := syncer.Synchronize(obs, ref)
		log.add("dwm.synchronize", root, t, time.Now())
		if err != nil {
			return nil, err
		}
		t = time.Now()
		f, err := core.ComputeFeatures(al, sigproc.CorrelationDistance, core.DefaultFilterWindow)
		log.add("core.features", root, t, time.Now())
		return f, err
	}
	var train []*core.Features
	for _, r := range ds.Train {
		f, err := features(r)
		if err != nil {
			return row, err
		}
		train = append(train, f)
	}
	t := time.Now()
	th, err := core.LearnThresholds(train, core.OCCConfig{R: ds.Scale.OCCMarginNSYNC})
	log.add("core.occ", root, t, time.Now())
	if err != nil {
		return row, err
	}
	row.Result.Thresholds = th
	for _, r := range append(append([]*ids.Run(nil), ds.TestBenign...), ds.TestMalicious...) {
		f, err := features(r)
		if err != nil {
			return row, err
		}
		t := time.Now()
		record(&row.Result.Overall, r, th.Detect(f).Intrusion)
		record(&row.Result.CDisp, r, th.DetectSubset(f, core.SubCDisp).Intrusion)
		record(&row.Result.HDist, r, th.DetectSubset(f, core.SubHDist).Intrusion)
		record(&row.Result.VDist, r, th.DetectSubset(f, core.SubVDist).Intrusion)
		log.add("core.detect", root, t, time.Now())
	}
	return row, nil
}

// record tallies one verdict into a Table VIII outcome.
func record(o *experiment.Outcome, r *ids.Run, flagged bool) {
	switch {
	case r.Malicious && flagged:
		o.TP++
	case r.Malicious:
		o.FN++
	case flagged:
		o.FP++
	default:
		o.TN++
	}
	if r.Malicious {
		if o.PerAttack == nil {
			o.PerAttack = map[string][2]int{}
		}
		c := o.PerAttack[r.Label]
		c[1]++
		if flagged {
			c[0]++
		}
		o.PerAttack[r.Label] = c
	}
}

// rowDigest fingerprints Table VIII rows: confusion counts, per-attack
// counts and exact thresholds.
func rowDigest(rows []experiment.Table8Row) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s|%v|%v|", r.Printer, r.Transform, r.Channel)
		for _, o := range []experiment.Outcome{r.Result.Overall, r.Result.CDisp, r.Result.HDist, r.Result.VDist} {
			fmt.Fprintf(h, "%d,%d,%d,%d", o.FP, o.TN, o.TP, o.FN)
			labels := make([]string, 0, len(o.PerAttack))
			for l := range o.PerAttack {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				fmt.Fprintf(h, ",%s=%v", l, o.PerAttack[l])
			}
			fmt.Fprint(h, ";")
		}
		th := r.Result.Thresholds
		fmt.Fprintf(h, "%x,%x,%x\n", math.Float64bits(th.CC), math.Float64bits(th.HC), math.Float64bits(th.VC))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedDigests maps a listed seed to the digest of its eval_table8 rows.
//
//go:embed digests.json
var digestsJSON []byte

func pinnedDigest(seed int64) (string, bool, error) {
	var pinned map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		return "", false, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := pinned[fmt.Sprint(seed)]
	return d, ok, nil
}
