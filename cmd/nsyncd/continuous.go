package main

// Continuous operations: the daemon's defense against slow sensor drift.
// Every finished benign session is offered to a rolling re-baseline engine
// (internal/rebase — its guardrail rejects prints the current model flagged,
// so an attacker cannot steer the baseline). After enough absorbed prints
// the evolved baseline becomes a content-addressed candidate model
// (internal/registry) that must walk shadow → canary → active on live
// sessions (internal/ingest.SharedPool.SetShadow) before its verdicts count,
// with a disagreement budget that rolls it back instead. The swap is hot:
// sessions in flight keep the model they started with, and only new
// sessions see the promoted one.

import (
	"log"
	"sync"

	"nsync/internal/core"
	"nsync/internal/ingest"
	"nsync/internal/rebase"
	"nsync/internal/registry"
	"nsync/internal/sigproc"
)

// continuousOptions collects the -rebase* / promotion flag values.
type continuousOptions struct {
	Alpha       float64
	Window      int
	Margin      float64
	RebaseAfter int
	// Store persists candidate models (nil: candidates live only in memory).
	// Opened by main and shared with the serving pool, so a persisted
	// candidate is immediately loadable by version over the wire.
	Store  *registry.Store
	Quorum int
	Health core.HealthConfig
	Deploy registry.DeploymentConfig
}

// controller owns the re-baseline engine and the promotion lifecycle. Its
// mutex serializes engine access; deployment hooks run on session worker
// goroutines (never while the mutex is held by the same call chain).
type controller struct {
	pool  *ingest.SharedPool
	specs []ingest.ChannelSpec
	// caps bounds each channel's capture in wire samples: 1.5x the trained
	// reference's lane samples. A session longer than that cannot be a
	// print of the trained process, and the cap bounds daemon memory on a
	// runaway stream. Absorb never resizes a reference, so the caps are
	// fixed at boot and read without the mutex.
	caps []int

	mu            sync.Mutex
	eng           *rebase.Engine
	store         *registry.Store // nil: candidates are not persisted
	dep           *registry.Deployment
	health        core.HealthConfig
	quorum        int
	rebaseAfter   int
	sinceProposal int
	candidate     *registry.Model
}

// newController builds the continuous-operations loop around the boot-time
// trained channels. feats are the per-channel training features (one slice
// per channel, in chans order) that seed the engine's threshold window.
// pool is the shared model pool new sessions are served from: a candidate
// is teed into it as its shadow, and a promoted one is registered there and
// becomes the default version. bootVersion is the boot model's version in
// that pool.
func newController(opts continuousOptions, chans []core.FusedMonitorChannel, feats [][]*core.Features, specs []ingest.ChannelSpec, pool *ingest.SharedPool, bootVersion string) (*controller, error) {
	rchans := make([]rebase.Channel, len(chans))
	for i, ch := range chans {
		rchans[i] = rebase.Channel{Name: ch.Name, Reference: ch.Reference, Params: ch.Params, Train: feats[i]}
	}
	eng, err := rebase.NewEngine(rebase.Config{
		Alpha: opts.Alpha, Window: opts.Window, Margin: opts.Margin,
		K: opts.Quorum, Health: opts.Health,
	}, rchans)
	if err != nil {
		return nil, err
	}

	caps := make([]int, len(specs))
	for i, ch := range chans {
		caps[i] = ch.Reference.Len() * specs[i].Lanes * 3 / 2
	}

	c := &controller{
		pool: pool, specs: specs, caps: caps, eng: eng,
		store:  opts.Store,
		health: opts.Health, quorum: opts.Quorum,
		rebaseAfter: opts.RebaseAfter,
	}
	c.dep = registry.NewDeployment(opts.Deploy, bootVersion)
	c.dep.OnCanary = func(version string) {
		c.mu.Lock()
		m := c.candidate
		c.mu.Unlock()
		pool.SetShadow(m, true, c.recordSession)
		log.Printf("model %s entered canary: candidate verdicts now authoritative", version)
	}
	c.dep.OnPromote = func(version string) {
		c.mu.Lock()
		m := c.candidate
		c.candidate = nil
		c.mu.Unlock()
		if m != nil {
			// Registering pins the promoted model in the shared pool, and the
			// default flip routes new sessions to it; sessions pinned to an
			// older version by content address keep being served.
			if _, err := pool.Register(m); err != nil {
				log.Printf("register promoted model %s: %v", version, err)
			} else {
				pool.SetDefault(version)
			}
		}
		pool.SetShadow(nil, false, nil)
		log.Printf("promoted model %s to active (generation %d)", version, c.dep.Generation())
	}
	c.dep.OnRetire = func(version, reason string) {
		c.mu.Lock()
		c.candidate = nil
		c.mu.Unlock()
		pool.SetShadow(nil, false, nil)
		log.Printf("retired candidate model %s: %s", version, reason)
	}
	log.Printf("continuous re-baselining enabled: boot model %s, propose after %d absorbed prints", bootVersion, c.rebaseAfter)
	return c, nil
}

// observe feeds one finished session to the engine. verdict is the session's
// served verdict; lanes holds the captured lane-major wire samples per
// channel (nil when the capture overflowed or was disabled).
func (c *controller) observe(v *ingest.Verdict, lanes [][]float64) {
	if v.Intrusion || lanes == nil {
		return
	}
	for _, ch := range v.Channels {
		if ch.Quarantined {
			return
		}
	}
	signals := make([]*sigproc.Signal, len(c.specs))
	for i, spec := range c.specs {
		n := len(lanes[i]) / spec.Lanes
		if n == 0 {
			return
		}
		sig := sigproc.New(spec.Rate, spec.Lanes, n)
		for s := 0; s < n; s++ {
			for l := 0; l < spec.Lanes; l++ {
				sig.Data[l][s] = lanes[i][s*spec.Lanes+l]
			}
		}
		signals[i] = sig
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.eng.Absorb(signals)
	if err != nil {
		log.Printf("rebase: absorb failed: %v", err)
		return
	}
	if !res.Absorbed {
		log.Printf("rebase: print rejected: %s", res.Reason)
		return
	}
	c.sinceProposal++
	log.Printf("rebase: absorbed benign print (%d/%d toward next candidate)", c.sinceProposal, c.rebaseAfter)
	if c.sinceProposal < c.rebaseAfter || c.candidate != nil {
		return
	}
	if _, st := c.dep.Candidate(); st != registry.StateNone {
		return
	}
	c.propose()
}

// propose snapshots the engine into a candidate model and enters it at
// shadow. Called with c.mu held.
func (c *controller) propose() {
	m := &registry.Model{K: c.quorum}
	for _, ch := range c.eng.Snapshot() {
		m.Channels = append(m.Channels, registry.ChannelModel{
			Name: ch.Name, Reference: ch.Reference, Params: ch.Params,
			Thresholds: ch.Thresholds, Health: c.health,
		})
	}
	version, err := m.Version()
	if err != nil {
		log.Printf("rebase: candidate model: %v", err)
		return
	}
	if c.store != nil {
		if _, err := c.store.Put(m); err != nil {
			log.Printf("rebase: persist candidate %s: %v", version, err)
			return
		}
	}
	if err := c.dep.Propose(version); err != nil {
		log.Printf("rebase: propose %s: %v", version, err)
		return
	}
	c.candidate = m
	c.sinceProposal = 0
	c.pool.SetShadow(m, false, c.recordSession)
	log.Printf("proposed candidate model %s (shadow)", version)
}

// recordSession scores one session that both the active and the candidate
// model judged: agreement advances the candidate, disagreement spends its
// budget.
func (c *controller) recordSession(pv, sv *ingest.Verdict) {
	c.dep.RecordSession(pv.Intrusion == sv.Intrusion)
}

// captureFactory wraps the model pool so each session's stream is also
// captured for the re-baseline engine.
type captureFactory struct {
	pool *ingest.SharedPool
	ctrl *controller
}

// Acquire implements ingest.SinkFactory.
func (f *captureFactory) Acquire(hello *ingest.Frame) (ingest.Sink, error) {
	s, err := f.pool.Acquire(hello)
	if err != nil {
		return nil, err
	}
	return &captureSink{Sink: s, ctrl: f.ctrl, lanes: make([][]float64, len(f.ctrl.specs)), caps: f.ctrl.caps}, nil
}

// Release implements ingest.SinkFactory.
func (f *captureFactory) Release(s ingest.Sink) {
	if cs, ok := s.(*captureSink); ok {
		f.pool.Release(cs.Sink)
		return
	}
	f.pool.Release(s)
}

// captureSink tees a session's lane-major samples into a buffer while
// forwarding them to the wrapped sink; on a benign finish the buffer is
// offered to the re-baseline engine.
type captureSink struct {
	ingest.Sink
	ctrl     *controller
	lanes    [][]float64
	caps     []int
	overflow bool
}

// Unwrap exposes the wrapped sink so the journal's state capture reaches
// the stateful monitor underneath. The capture buffer itself is not
// persisted: a recovered session has a gap in its lane recording, so it is
// not re-baseline evidence anyway.
func (s *captureSink) Unwrap() ingest.Sink { return s.Sink }

// Push implements ingest.Sink.
func (s *captureSink) Push(ch int, values []float64) error {
	if err := s.Sink.Push(ch, values); err != nil {
		return err
	}
	if !s.overflow && ch >= 0 && ch < len(s.lanes) {
		s.lanes[ch] = append(s.lanes[ch], values...)
		if len(s.lanes[ch]) > s.caps[ch] {
			s.overflow = true
			s.lanes = nil
		}
	}
	return nil
}

// Finish implements ingest.Sink.
func (s *captureSink) Finish(reason string) (*ingest.Verdict, error) {
	v, err := s.Sink.Finish(reason)
	if err == nil && v != nil && !s.overflow {
		s.ctrl.observe(v, s.lanes)
	}
	return v, err
}
