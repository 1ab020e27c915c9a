package core

import (
	"errors"
	"fmt"
	"math"

	"nsync/internal/sigproc"
)

// HealthReason classifies why a channel was judged unhealthy. Health gating
// answers a different question than the discriminator: not "does this print
// match the reference?" but "is this sensor still producing a believable
// signal at all?". A flat or clipped channel fails synchronization in ways
// that look exactly like an intrusion (a zero-variance window has
// correlation 0, i.e. maximal vertical distance), so without gating a dying
// sensor produces a stuck alarm on benign prints — and with gating it is
// quarantined and simply stops voting.
type HealthReason int

// The health verdicts.
const (
	// HealthOK means the signal looks like a live sensor.
	HealthOK HealthReason = iota
	// NonFinite means the signal contains NaN or Inf samples.
	NonFinite
	// Flat means a lane's variance collapsed relative to the reference
	// (stuck-at sensor, dropout gap, unplugged connector).
	Flat
	// Saturated means a large fraction of a lane's samples are pinned at the
	// window extremes (ADC clipping).
	Saturated
	// Implausible means a lane's energy left the physically believable band
	// around the reference (orders of magnitude too hot or too quiet).
	Implausible
)

// String implements fmt.Stringer.
func (r HealthReason) String() string {
	switch r {
	case HealthOK:
		return "ok"
	case NonFinite:
		return "non-finite"
	case Flat:
		return "flat"
	case Saturated:
		return "saturated"
	case Implausible:
		return "implausible"
	default:
		return fmt.Sprintf("HealthReason(%d)", int(r))
	}
}

// HealthConfig tunes the per-channel health checks. The zero value selects
// the defaults, which are deliberately loose: health gating must only catch
// signals no working sensor could produce, never a merely unusual print —
// that distinction belongs to the discriminator.
type HealthConfig struct {
	// Window is the health evaluation window in seconds (default 2). Each
	// complete window is judged independently; one bad window quarantines
	// the channel for good.
	Window float64
	// FlatStdRatio: a lane whose window std falls below FlatStdRatio times
	// its reference std is flat (default 0.01).
	FlatStdRatio float64
	// SaturatedFrac: a lane with at least this fraction of window samples
	// pinned at the window extremes is saturated (default 0.3).
	SaturatedFrac float64
	// RMSRatio: a lane whose window RMS exceeds RMSRatio times its reference
	// RMS is implausible (default 8). Only the hot side is checked; the
	// quiet side is already covered by the flat check.
	RMSRatio float64
	// RecoveryWindows enables probationary recovery from quarantine: while
	// quarantined, the monitor keeps judging complete windows, and this many
	// CONSECUTIVE healthy windows un-quarantine the channel (an unhealthy
	// window resets the count). 0, the default, keeps quarantine sticky
	// forever — the right call for acute faults, but a transient glitch on
	// top of slow drift would permanently amputate a channel over a fleet's
	// lifetime. The recovered span is never retroactively trusted: samples
	// judged while quarantined stay out of ClearedSamples until the recovery
	// point.
	RecoveryWindows int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Window <= 0 {
		c.Window = 2
	}
	if c.FlatStdRatio <= 0 {
		c.FlatStdRatio = 0.01
	}
	if c.SaturatedFrac <= 0 {
		c.SaturatedFrac = 0.3
	}
	if c.RMSRatio <= 0 {
		c.RMSRatio = 8
	}
	return c
}

// healthBaseline holds the per-lane reference statistics the checks compare
// against.
type healthBaseline struct {
	std, rms []float64
}

func newHealthBaseline(reference *sigproc.Signal) healthBaseline {
	return healthBaseline{std: reference.Std(), rms: reference.RMS()}
}

// checkWindow judges one window of one channel against the reference
// baseline. The channel is unhealthy if ANY lane is unhealthy: verdict
// fusion averages distances across lanes, so a single dead lane is enough
// to poison the channel's vote.
func checkWindow(win *sigproc.Signal, base healthBaseline, cfg HealthConfig) HealthReason {
	for c, ch := range win.Data {
		for _, v := range ch {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return NonFinite
			}
		}
		if c >= len(base.std) {
			continue
		}
		if base.std[c] > 0 && laneStdOf(ch) < cfg.FlatStdRatio*base.std[c] {
			return Flat
		}
		if pinnedFraction(ch) >= cfg.SaturatedFrac {
			return Saturated
		}
		if base.rms[c] > 0 && laneRMSOf(ch) > cfg.RMSRatio*base.rms[c] {
			return Implausible
		}
	}
	return HealthOK
}

// pinnedFraction returns the fraction of samples sitting exactly at the
// window maximum or minimum. Live sensor noise touches its extremes once
// each; a clipping ADC parks there.
func pinnedFraction(ch []float64) float64 {
	if len(ch) == 0 {
		return 0
	}
	hi, lo := ch[0], ch[0]
	for _, v := range ch[1:] {
		if v > hi {
			hi = v
		}
		if v < lo {
			lo = v
		}
	}
	if hi == lo {
		return 0 // flat, not saturated; the flat check owns this case
	}
	pinned := 0
	for _, v := range ch {
		if v == hi || v == lo {
			pinned++
		}
	}
	return float64(pinned) / float64(len(ch))
}

func laneStdOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	m := sum / float64(len(v))
	var ss float64
	for _, x := range v {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(v)))
}

func laneRMSOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	return math.Sqrt(ss / float64(len(v)))
}

// CheckSignal scans a whole captured signal offline, window by window, and
// returns the first unhealthy window's reason and start time in seconds
// (HealthOK and 0 if the signal is healthy throughout). Signals shorter than
// one health window are judged as a single window.
func CheckSignal(reference, observed *sigproc.Signal, cfg HealthConfig) (HealthReason, float64, error) {
	if err := observed.Validate(); err != nil {
		return HealthOK, 0, err
	}
	cfg = cfg.withDefaults()
	base := newHealthBaseline(reference)
	n := observed.Len()
	if n == 0 {
		return HealthOK, 0, nil
	}
	win := int(cfg.Window * observed.Rate)
	if win <= 0 || win > n {
		win = n
	}
	for start := 0; start+win <= n; start += win {
		if r := checkWindow(observed.Slice(start, start+win), base, cfg); r != HealthOK {
			return r, float64(start) / observed.Rate, nil
		}
	}
	return HealthOK, 0, nil
}

// HealthMonitor is the streaming counterpart of CheckSignal: it consumes
// sample chunks as a print progresses and quarantines the channel at the
// first unhealthy window. By default quarantine is sticky — a sensor that
// went flat mid-print is not trusted again even if it twitches back to life.
// Setting HealthConfig.RecoveryWindows makes quarantine probationary
// instead: a sustained run of healthy windows earns the channel back.
//
// A HealthMonitor is not safe for concurrent use.
type HealthMonitor struct {
	cfg  HealthConfig
	base healthBaseline
	win  int // samples per health window
	rate float64

	// buf holds samples past the last judged window; judged windows are
	// dropped from its front in place, and view is the reusable header of
	// the window being judged (session scratch, see DESIGN.md §13).
	buf         *sigproc.Signal
	view        sigproc.Signal
	consumed    int // healthy samples cleared for synchronization
	position    int // total samples judged into windows, healthy or not
	streak      int // consecutive healthy windows while quarantined
	recoveries  int
	quarantined bool
	reason      HealthReason
	at          float64
}

// NewHealthMonitor builds a streaming health tracker for one channel.
func NewHealthMonitor(reference *sigproc.Signal, cfg HealthConfig) (*HealthMonitor, error) {
	if err := reference.Validate(); err != nil {
		return nil, fmt.Errorf("core: health reference: %w", err)
	}
	if reference.Len() == 0 {
		return nil, errors.New("core: empty health reference")
	}
	cfg = cfg.withDefaults()
	win := int(cfg.Window * reference.Rate)
	if win < 1 {
		win = 1
	}
	return &HealthMonitor{
		cfg:  cfg,
		base: newHealthBaseline(reference),
		win:  win,
		rate: reference.Rate,
		buf:  &sigproc.Signal{Rate: reference.Rate},
	}, nil
}

// Push feeds newly observed samples and evaluates every health window they
// complete. It returns the channel's health after the push. Without
// RecoveryWindows configured, quarantine is terminal: once a reason other
// than HealthOK is returned, the monitor stays quarantined. With it, the
// monitor keeps judging windows during quarantine and lifts it after
// RecoveryWindows consecutive healthy ones — ClearedSamples then jumps to
// the recovery point, so the quarantined span itself is never cleared.
func (h *HealthMonitor) Push(chunk *sigproc.Signal) (HealthReason, error) {
	if h.quarantined && !h.RecoveryEnabled() {
		return h.reason, nil
	}
	if err := h.buf.Concat(chunk); err != nil {
		return h.health(), err
	}
	for h.buf.Len() >= h.win {
		r := checkWindow(h.buf.SliceInto(&h.view, 0, h.win), h.base, h.cfg)
		if r != HealthOK {
			if !h.quarantined {
				h.quarantined = true
				h.reason = r
				h.at = float64(h.position) / h.rate
			}
			h.streak = 0
			h.position += h.win
			if !h.RecoveryEnabled() {
				h.buf.DropFront(h.buf.Len())
				return h.reason, nil
			}
			h.buf.DropFront(h.win)
			continue
		}
		h.position += h.win
		h.buf.DropFront(h.win)
		if h.quarantined {
			h.streak++
			if h.streak >= h.cfg.RecoveryWindows {
				h.quarantined = false
				h.reason = HealthOK
				h.streak = 0
				h.recoveries++
				h.consumed = h.position
			}
			continue
		}
		h.consumed += h.win
	}
	return h.health(), nil
}

// health is the monitor's current verdict.
func (h *HealthMonitor) health() HealthReason {
	if h.quarantined {
		return h.reason
	}
	return HealthOK
}

// Flush judges the buffered partial health window at stream end and returns
// the channel's final health. Without it, a fault confined to the stream's
// last seconds — too short to complete a health window — would never be
// judged, and FusedMonitor.Flush would forward the damaged tail into the
// synchronizer. Partial windows shorter than half a health window are
// forwarded unjudged: the saturation check counts samples pinned at the
// window extremes, and on a handful of samples a healthy noise window pins
// a large fraction by construction.
func (h *HealthMonitor) Flush() HealthReason {
	if h.quarantined {
		return h.reason
	}
	n := h.buf.Len()
	if n == 0 {
		return HealthOK
	}
	if n >= h.win/2 {
		if r := checkWindow(h.buf, h.base, h.cfg); r != HealthOK {
			h.quarantined = true
			h.reason = r
			h.at = float64(h.position) / h.rate
			h.streak = 0
			h.position += n
			h.buf.DropFront(n)
			return r
		}
	}
	h.consumed += n
	h.position += n
	h.buf.DropFront(n)
	return HealthOK
}

// Reset returns the monitor to its freshly constructed state (healthy, no
// buffered samples) so it can be pooled across print sessions.
func (h *HealthMonitor) Reset() {
	h.buf.DropFront(h.buf.Len())
	h.consumed = 0
	h.position = 0
	h.streak = 0
	h.recoveries = 0
	h.quarantined = false
	h.reason = HealthOK
	h.at = 0
}

// Quarantined reports whether the channel has been quarantined.
func (h *HealthMonitor) Quarantined() bool { return h.quarantined }

// ClearedSamples returns how many samples from the start of the stream have
// been cleared for synchronization. Samples in windows not yet complete — or
// in the window that triggered quarantine — are not counted. On probationary
// recovery the counter jumps to the recovery point: the quarantined span was
// judged but never cleared, and clearance resumes from there.
func (h *HealthMonitor) ClearedSamples() int { return h.consumed }

// WindowSamples returns the health window length in samples.
func (h *HealthMonitor) WindowSamples() int { return h.win }

// Reason returns the quarantine reason (HealthOK while healthy).
func (h *HealthMonitor) Reason() HealthReason { return h.reason }

// QuarantinedAt returns the start time in seconds of the window that
// triggered quarantine (0 while healthy).
func (h *HealthMonitor) QuarantinedAt() float64 { return h.at }

// RecoveryEnabled reports whether probationary recovery is configured.
func (h *HealthMonitor) RecoveryEnabled() bool { return h.cfg.RecoveryWindows > 0 }

// Recoveries returns how many times the channel has left quarantine.
func (h *HealthMonitor) Recoveries() int { return h.recoveries }

// BufferedTail returns a copy of the samples buffered past the last judged
// window. After a probationary recovery this is the healthy partial window
// the caller may resume forwarding from; ClearedSamples does not include it
// until its window completes.
func (h *HealthMonitor) BufferedTail() *sigproc.Signal { return h.buf.Clone() }
