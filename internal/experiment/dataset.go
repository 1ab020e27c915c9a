package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"nsync/internal/gcode"
	"nsync/internal/ids"
	"nsync/internal/obs"
	"nsync/internal/printer"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
	"nsync/internal/slicer"
)

// Pipeline-stage and cache metrics (see DESIGN.md §10). Stage timers wrap
// the coarse phases of a reproduction run; the cache counters make the
// dataset memoization observable (a miss costs a full roster simulation).
var (
	stageGenerate    = obs.GetTimer("stage.generate")
	datasetCacheHits = obs.GetCounter("experiment.dataset_cache.hits")
	datasetCacheMiss = obs.GetCounter("experiment.dataset_cache.misses")
)

// sigprocBH / sigprocBoxcar keep the scale definitions compact.
var (
	sigprocBH     = sigproc.BlackmanHarris
	sigprocBoxcar = sigproc.Boxcar
)

// AttackNames lists the five malicious processes of Table I, in order.
var AttackNames = []string{"Void", "InfillGrid", "Speed0.95", "Layer0.3", "Scale0.95"}

// Dataset is the Table I roster for one printer: a reference run, benign
// training runs, benign test runs, and malicious test runs.
type Dataset struct {
	Printer string
	Scale   Scale
	// BaseSeed is the seed the roster was derived from; together with the
	// scale fingerprint and printer it content-addresses the dataset.
	BaseSeed int64

	Ref           *ids.Run
	Train         []*ids.Run
	TestBenign    []*ids.Run
	TestMalicious []*ids.Run
}

// ckptID content-addresses the dataset for checkpoint keys: everything a
// table cell's result depends on besides the cell parameters themselves.
func (ds *Dataset) ckptID() string {
	return fmt.Sprintf("%s/%s/%d", ds.Scale.fingerprint(), ds.Printer, ds.BaseSeed)
}

// sliceConfig returns the benign slicer settings for a scale.
func (s Scale) sliceConfig() slicer.Config {
	cfg := slicer.DefaultConfig()
	cfg.TotalHeight = s.PartHeight
	cfg.LayerHeight = s.LayerHeight
	cfg.PerimeterSpeed *= s.SpeedFactor
	cfg.InfillSpeed *= s.SpeedFactor
	cfg.TravelSpeed *= s.SpeedFactor
	cfg.InfillSpacing = 3.0
	return cfg
}

// Programs builds the benign G-code program plus the five malicious
// variants of Table I.
func (s Scale) Programs() (benign *gcode.Program, malicious map[string]*gcode.Program, err error) {
	cfg := s.sliceConfig()
	benign, err = slicer.Slice(slicer.Gear(), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: slice benign: %w", err)
	}
	malicious = make(map[string]*gcode.Program, len(AttackNames))

	// Void [25]: a cavity in the upper layers near the part center.
	void := &gcode.VoidAttack{
		CenterX: cfg.CenterX + 8,
		CenterY: cfg.CenterY,
		Radius:  8,
		ZMin:    cfg.LayerHeight * 1.5,
		ZMax:    s.PartHeight + 0.1,
	}
	if malicious["Void"], err = void.Apply(benign); err != nil {
		return nil, nil, err
	}

	// InfillGrid [4]: re-slice with the grid pattern.
	gridCfg := cfg
	gridCfg.Infill = slicer.InfillGridPattern
	if malicious["InfillGrid"], err = slicer.Slice(slicer.Gear(), gridCfg); err != nil {
		return nil, nil, err
	}

	// Speed0.95 [12]: all feed rates reduced by 5%.
	if malicious["Speed0.95"], err = (&gcode.SpeedAttack{Factor: 0.95}).Apply(benign); err != nil {
		return nil, nil, err
	}

	// Layer0.3 [12]: re-slice at 0.3 mm layers.
	layerCfg := cfg
	layerCfg.LayerHeight = 0.3
	if malicious["Layer0.3"], err = slicer.Slice(slicer.Gear(), layerCfg); err != nil {
		return nil, nil, err
	}

	// Scale0.95 [25]: the object shrunk by 5%.
	if malicious["Scale0.95"], err = (&gcode.ScaleAttack{Factor: 0.95}).Apply(benign); err != nil {
		return nil, nil, err
	}
	return benign, malicious, nil
}

// simulate runs one printing process and captures all side channels.
func (s Scale) simulate(prog *gcode.Program, prof printer.Profile, label string, malicious bool, seed int64) (*ids.Run, error) {
	// Start near temperature: the heaters only keep temperature during the
	// print, so heat-up ramps do not dominate the short CI-scale
	// recordings. The exact starting point inside the bang-bang band is
	// random per run — a real printer's heater duty phase is arbitrary at
	// print start, which is what makes the PWR channel weakly correlated
	// with the printing process (Section VIII-B).
	phase := rand.New(rand.NewSource(seed * 7919))
	tr, err := printer.Run(prog, prof, printer.Options{
		Seed:          seed,
		TraceRate:     s.TraceRate,
		InitialHotend: 205 + (phase.Float64()*2 - 1),
		InitialBed:    60 + (phase.Float64()*1.6 - 0.8),
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: simulate %s/%s seed %d: %w", prof.Name, label, seed, err)
	}
	tr = tr.Recording()
	sigs, err := sensor.AcquireAll(tr, s.Sensor, seed)
	if err != nil {
		return nil, err
	}
	return &ids.Run{
		Printer:        prof.Name,
		Label:          label,
		Malicious:      malicious,
		Seed:           seed,
		Signals:        sigs,
		SpectroConfigs: s.Spectro,
		LayerTimes:     append([]float64(nil), tr.LayerStart...),
		Duration:       tr.Duration(),
	}, nil
}

// simJob is one simulation of the roster, with its pre-assigned seed.
type simJob struct {
	prog      *gcode.Program
	label     string
	malicious bool
	seed      int64
}

// Generate builds the full roster for one printer. Seeds are derived from
// baseSeed deterministically and assigned in roster order before any
// simulation starts, then the simulations fan out to the engine's worker
// pool (see SetWorkers) and are collected by roster index — so the same
// (scale, printer, baseSeed) always yields the same dataset, at any worker
// count.
func Generate(s Scale, prof printer.Profile, baseSeed int64) (*Dataset, error) {
	t := stageGenerate.Start()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if _, ok := s.DWM[prof.Name]; !ok {
		return nil, fmt.Errorf("experiment: scale %q has no DWM params for printer %q", s.Name, prof.Name)
	}
	benign, malicious, err := s.Programs()
	if err != nil {
		return nil, err
	}
	seed := baseSeed
	next := func() int64 { seed++; return seed }
	jobs := []simJob{{benign, "Benign(ref)", false, next()}}
	for i := 0; i < s.Counts.Train; i++ {
		jobs = append(jobs, simJob{benign, "Benign(train)", false, next()})
	}
	for i := 0; i < s.Counts.TestBenign; i++ {
		jobs = append(jobs, simJob{benign, "Benign", false, next()})
	}
	for _, name := range AttackNames {
		prog := malicious[name]
		for i := 0; i < s.Counts.PerAttack; i++ {
			jobs = append(jobs, simJob{prog, name, true, next()})
		}
	}
	// Each simulation runs under the engine's resilience wrapper: a chaos
	// strike or a worker panic costs one retried simulation, not the whole
	// roster (simulate is deterministic per seed, so a retry reproduces the
	// identical run).
	runs, err := fanOutCtx(jobs, func(ctx context.Context, _ int, j simJob) (*ids.Run, error) {
		return resilientCall(ctx, func() (*ids.Run, error) {
			return s.simulate(j.prog, prof, j.label, j.malicious, j.seed)
		})
	})
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Printer: prof.Name, Scale: s, BaseSeed: baseSeed}
	ds.Ref, runs = runs[0], runs[1:]
	ds.Train, runs = runs[:s.Counts.Train], runs[s.Counts.Train:]
	ds.TestBenign, runs = runs[:s.Counts.TestBenign], runs[s.Counts.TestBenign:]
	ds.TestMalicious = runs
	stageGenerate.Stop(t)
	return ds, nil
}

// datasetCache memoizes one dataset per (scale, printer, seed); because
// datasets are hundreds of megabytes, at most capacity entries are kept.
// Each entry generates exactly once (singleflight): concurrent callers of
// the same key share one Generate call, while different keys generate in
// parallel — the map lock is never held during simulation.
type datasetCache struct {
	mu       sync.Mutex
	capacity int
	order    []string
	entries  map[string]*datasetEntry
}

type datasetEntry struct {
	once sync.Once
	ds   *Dataset
	err  error
}

var cache = &datasetCache{capacity: 2, entries: make(map[string]*datasetEntry)}

// GenerateCached is Generate with process-wide memoization, so table and
// figure builders sharing a roster do not re-simulate it. When a checkpoint
// store is installed (SetCheckpoint) it also consults and feeds the on-disk
// dataset checkpoint, so a killed sweep resumes past the simulation phase
// entirely. It is safe for concurrent use.
func GenerateCached(s Scale, prof printer.Profile, baseSeed int64) (*Dataset, error) {
	key := fmt.Sprintf("%s/%s/%d", s.Name, prof.Name, baseSeed)
	cache.mu.Lock()
	e, ok := cache.entries[key]
	if ok {
		datasetCacheHits.Inc()
	} else {
		datasetCacheMiss.Inc()
		e = &datasetEntry{}
		cache.entries[key] = e
		cache.order = append(cache.order, key)
		for len(cache.order) > cache.capacity {
			evict := cache.order[0]
			cache.order = cache.order[1:]
			delete(cache.entries, evict)
		}
	}
	cache.mu.Unlock()
	e.once.Do(func() {
		if ds, ok := loadDatasetCheckpoint(s, prof.Name, baseSeed); ok {
			e.ds = ds
			return
		}
		e.ds, e.err = Generate(s, prof, baseSeed)
		if e.err == nil {
			e.err = saveDatasetCheckpoint(e.ds)
		}
	})
	return e.ds, e.err
}

// diskRun is the persisted form of one run: the simulation outputs only.
// Spectrogram configs are re-derived from the Scale at load time (they
// contain window functions, which do not serialize), and the spectrogram
// cache rebuilds lazily as always.
type diskRun struct {
	Printer    string
	Label      string
	Malicious  bool
	Seed       int64
	Signals    map[sensor.Channel]*sigproc.Signal
	LayerTimes []float64
	Duration   float64
}

// diskDataset is the persisted form of a dataset.
type diskDataset struct {
	Printer       string
	BaseSeed      int64
	Ref           *diskRun
	Train         []*diskRun
	TestBenign    []*diskRun
	TestMalicious []*diskRun
}

func toDiskRun(r *ids.Run) *diskRun {
	return &diskRun{
		Printer: r.Printer, Label: r.Label, Malicious: r.Malicious, Seed: r.Seed,
		Signals: r.Signals, LayerTimes: r.LayerTimes, Duration: r.Duration,
	}
}

func toDiskRuns(runs []*ids.Run) []*diskRun {
	out := make([]*diskRun, len(runs))
	for i, r := range runs {
		out[i] = toDiskRun(r)
	}
	return out
}

func (s Scale) fromDiskRun(d *diskRun) *ids.Run {
	return &ids.Run{
		Printer: d.Printer, Label: d.Label, Malicious: d.Malicious, Seed: d.Seed,
		Signals: d.Signals, SpectroConfigs: s.Spectro,
		LayerTimes: d.LayerTimes, Duration: d.Duration,
	}
}

func (s Scale) fromDiskRuns(ds []*diskRun) []*ids.Run {
	out := make([]*ids.Run, len(ds))
	for i, d := range ds {
		out[i] = s.fromDiskRun(d)
	}
	return out
}

func datasetCheckpointKey(s Scale, printer string, baseSeed int64) string {
	return fmt.Sprintf("dataset/%s/%s/%d", s.fingerprint(), printer, baseSeed)
}

func loadDatasetCheckpoint(s Scale, printer string, baseSeed int64) (*Dataset, bool) {
	store := ckptStore()
	if store == nil {
		return nil, false
	}
	var disk diskDataset
	ok, err := store.Load(datasetCheckpointKey(s, printer, baseSeed), &disk)
	if err != nil || !ok || disk.Ref == nil {
		return nil, false
	}
	return &Dataset{
		Printer: disk.Printer, Scale: s, BaseSeed: disk.BaseSeed,
		Ref:           s.fromDiskRun(disk.Ref),
		Train:         s.fromDiskRuns(disk.Train),
		TestBenign:    s.fromDiskRuns(disk.TestBenign),
		TestMalicious: s.fromDiskRuns(disk.TestMalicious),
	}, true
}

func saveDatasetCheckpoint(ds *Dataset) error {
	store := ckptStore()
	if store == nil {
		return nil
	}
	return store.Save(datasetCheckpointKey(ds.Scale, ds.Printer, ds.BaseSeed), &diskDataset{
		Printer: ds.Printer, BaseSeed: ds.BaseSeed,
		Ref:           toDiskRun(ds.Ref),
		Train:         toDiskRuns(ds.Train),
		TestBenign:    toDiskRuns(ds.TestBenign),
		TestMalicious: toDiskRuns(ds.TestMalicious),
	})
}

// Profiles returns the two evaluation printers in paper order.
func Profiles() []printer.Profile {
	return []printer.Profile{printer.UM3(), printer.RM3()}
}
