package ingest

import (
	"nsync/internal/obs"
	"nsync/internal/registry"
)

// Per-version push latency timers: how long the active and shadow models
// spend on one Push call. Comparing the two histograms in -metrics shows
// whether a candidate model is affordable before it is promoted.
var (
	activePushTimer = obs.GetTimer("model.active.push")
	shadowPushTimer = obs.GetTimer("model.shadow.push")
)

// SetShadow installs m as the candidate model new sessions are teed into —
// the evaluation half of the registry's promotion walk — or clears the
// candidate when m is nil. The candidate is one more content-addressed pool
// entry, shared with any Hello that pins its version, and the shadow slot
// holds one reference on it: an unpinned candidate is evicted once it is
// cleared and the last session teed into it releases.
//
// When serve is false (shadow) the primary's verdict counts; when it is true
// (canary) the candidate's verdict counts while the primary still runs for
// comparison. onVerdict, if non-nil, is called with both verdicts whenever
// a session produced both. Sessions admitted earlier keep the sinks they
// started with. A model whose content address cannot be computed cannot be
// served, so it clears the candidate.
func (p *SharedPool) SetShadow(m *registry.Model, serve bool, onVerdict func(primary, shadow *Verdict)) {
	var version string
	if m != nil {
		var err error
		if version, err = m.Version(); err != nil {
			m = nil
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var e *sharedEntry
	if m != nil {
		if e = p.entries[version]; e == nil {
			e = newSharedEntry(version, m, false)
			p.entries[version] = e
		}
		e.refs++
	}
	if old := p.shadow; old != nil {
		old.refs--
		p.evictLocked(old)
	}
	p.shadow, p.serve, p.onVerdict = e, serve, onVerdict
}

// shadowSink tees a session into the primary and shadow sinks. The shadow
// is best-effort: its first error drops it for the rest of the session.
// Each half remembers its own pool entry, so Release returns it there.
type shadowSink struct {
	primary Sink
	shadow  Sink

	serve      bool
	onVerdict  func(primary, shadow *Verdict)
	shadowDead bool
}

// Unwrap exposes the primary sink — the authoritative detector state — so
// journal snapshots capture it. Shadow state is evaluation-only and is
// deliberately not persisted: after a crash a recovered session resumes
// primary-only.
func (s *shadowSink) Unwrap() Sink { return s.primary }

// Push implements Sink.
func (s *shadowSink) Push(ch int, values []float64) error {
	start := activePushTimer.Start()
	err := s.primary.Push(ch, values)
	activePushTimer.Stop(start)
	if err != nil {
		return err
	}
	if !s.shadowDead {
		start := shadowPushTimer.Start()
		serr := s.shadow.Push(ch, values)
		shadowPushTimer.Stop(start)
		if serr != nil {
			s.shadowDead = true
		}
	}
	return nil
}

// Finish implements Sink. The primary verdict is authoritative unless the
// shadow is serving (canary) and produced a verdict of its own.
func (s *shadowSink) Finish(reason string) (*Verdict, error) {
	pv, perr := s.primary.Finish(reason)
	var sv *Verdict
	if !s.shadowDead {
		sv, _ = s.shadow.Finish(reason) // best-effort; shadow errors never fail the session
	}
	if perr != nil {
		return nil, perr
	}
	if s.onVerdict != nil && sv != nil {
		s.onVerdict(pv, sv)
	}
	if s.serve && sv != nil {
		return sv, nil
	}
	return pv, nil
}
