package ingest

import (
	"sync"

	"nsync/internal/obs"
)

// Per-version push latency timers: how long the active and shadow models
// spend on one Push call. Comparing the two histograms in -metrics shows
// whether a candidate model is affordable before it is promoted.
var (
	activePushTimer = obs.GetTimer("model.active.push")
	shadowPushTimer = obs.GetTimer("model.shadow.push")
)

// SwapFactory is a SinkFactory over a fixed primary factory that can run a
// second, shadow factory side-by-side while sessions are live — the
// evaluation half of the registry's promotion walk. While a shadow is
// installed, every new session is fed to both the primary and the shadow
// sink, both verdicts are reported through the OnVerdict callback, and the
// session's authoritative verdict is the primary's — unless the shadow was
// marked serving (canary), in which case the shadow verdict is returned
// while the primary still runs for comparison. Sessions acquired before a
// shadow change keep the sinks they started with, and each shadow sink is
// released back to the factory that created it.
type SwapFactory struct {
	primary SinkFactory

	mu        sync.Mutex
	shadow    SinkFactory
	serve     bool
	onVerdict func(primary, shadow *Verdict)
}

// NewSwapFactory wraps the primary factory.
func NewSwapFactory(primary SinkFactory) *SwapFactory {
	return &SwapFactory{primary: primary}
}

// SetShadow installs a shadow factory for new sessions. When serve is true
// the shadow's verdict is authoritative (canary); onVerdict, if non-nil, is
// called with both verdicts whenever a session produced both.
func (f *SwapFactory) SetShadow(s SinkFactory, serve bool, onVerdict func(primary, shadow *Verdict)) {
	f.mu.Lock()
	f.shadow = s
	f.serve = serve
	f.onVerdict = onVerdict
	f.mu.Unlock()
}

// SetServe flips whether the shadow's verdict is authoritative for sessions
// admitted from now on (shadow → canary).
func (f *SwapFactory) SetServe(serve bool) {
	f.mu.Lock()
	f.serve = serve
	f.mu.Unlock()
}

// ClearShadow removes the shadow path for new sessions. Sessions already
// carrying a shadow sink finish it and release it to its origin factory.
func (f *SwapFactory) ClearShadow() {
	f.mu.Lock()
	f.shadow = nil
	f.serve = false
	f.onVerdict = nil
	f.mu.Unlock()
}

// Acquire implements SinkFactory. The primary acquire is load-bearing; a
// shadow acquire failure only degrades the session to primary-only — a
// broken candidate model must never cost a live session.
func (f *SwapFactory) Acquire(hello *Frame) (Sink, error) {
	f.mu.Lock()
	shadow, serve, onVerdict := f.shadow, f.serve, f.onVerdict
	f.mu.Unlock()

	ps, err := f.primary.Acquire(hello)
	if err != nil {
		return nil, err
	}
	if shadow != nil {
		if ss, err := shadow.Acquire(hello); err == nil {
			return &shadowSink{
				primary: ps, shadow: ss, sOrigin: shadow,
				serve: serve, onVerdict: onVerdict,
			}, nil
		}
	}
	return ps, nil
}

// Release implements SinkFactory: primary sinks go back to the primary, and
// a shadow sink goes back to the factory that created it, which may no
// longer be the installed shadow.
func (f *SwapFactory) Release(s Sink) {
	if w, ok := s.(*shadowSink); ok {
		f.primary.Release(w.primary)
		w.sOrigin.Release(w.shadow)
		return
	}
	f.primary.Release(s)
}

// shadowSink tees a session into the primary and shadow sinks. The shadow
// is best-effort: its first error drops it for the rest of the session.
type shadowSink struct {
	primary Sink
	shadow  Sink
	sOrigin SinkFactory

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
