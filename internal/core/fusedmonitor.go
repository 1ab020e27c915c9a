package core

import (
	"errors"
	"fmt"

	"nsync/internal/dwm"
	"nsync/internal/obs"
	"nsync/internal/sigproc"
)

// fusedPending tracks, per healthy channel per Push, how many samples sit
// health-checked but not yet cleared for synchronization (see DESIGN.md
// §10). Sustained growth means the detection lag is not draining.
var fusedPending = obs.GetHistogram("fusedmonitor.pending")

// FusedMonitorChannel configures one side channel of a streaming fused
// monitor.
type FusedMonitorChannel struct {
	Name       string
	Reference  *sigproc.Signal
	Params     dwm.Params
	Thresholds Thresholds
	Health     HealthConfig
	// MonitorOptions are applied to the channel's underlying Monitor.
	MonitorOptions []MonitorOption
}

// FusedAlert is a fused intrusion decision raised by a FusedMonitor. Alerts
// are edge-triggered: one alert when the healthy-channel vote first reaches
// quorum, another only after the vote has fallen back below it.
type FusedAlert struct {
	// Time is seconds since the print began.
	Time float64
	// Votes, Healthy, Needed mirror FusedVerdict.
	Votes, Healthy, Needed int
}

// String implements fmt.Stringer.
func (a FusedAlert) String() string {
	return fmt.Sprintf("fused intrusion: %d/%d healthy channels voting (quorum %d) at t=%.1fs",
		a.Votes, a.Healthy, a.Needed, a.Time)
}

// FusedChannelState is a snapshot of one channel inside a FusedMonitor.
type FusedChannelState struct {
	Name        string
	Quarantined bool
	Health      HealthReason
	// QuarantinedAt is when the unhealthy window began (seconds).
	QuarantinedAt float64
	// Voting reports whether the channel currently votes intrusion.
	Voting bool
}

// FusedMonitor is the streaming variant of FusedDetector: one core.Monitor
// plus one HealthMonitor per channel. Samples are health-checked before they
// reach the per-channel monitor; a channel that goes unhealthy mid-print is
// quarantined — it stops being synchronized and its vote is withdrawn — and
// the remaining healthy channels keep detecting.
//
// Detection trails health clearance by one health window: a window's samples
// are committed only once the NEXT window has also been judged healthy.
// A fault whose onset falls mid-window damages that window too mildly to
// quarantine, but fully covers the next one — the lag ensures the damaged
// suffix is still withheld instead of being synchronized into a stuck alarm
// moments before quarantine lands. The cost is bounded detection latency
// (two health windows, 4 s at defaults), not accuracy. The DWM work does
// not wait for the lag: each channel's next window is proposed as soon as
// its samples arrive and committed when health clears it, so Flush commits
// that window instead of synchronizing it (see DESIGN.md §9).
//
// A FusedMonitor is not safe for concurrent use.
type FusedMonitor struct {
	chans []*fusedMonChannel
	k     int

	alerting bool
	alerts   []FusedAlert
}

type fusedMonChannel struct {
	name      string
	mon       *Monitor
	health    *HealthMonitor
	pending   *sigproc.Signal // health-checked but not yet cleared for sync
	forwarded int             // samples already handed to the monitor
	rate      float64
	voting    bool
	// fwdView is the reusable view of the cleared pending prefix handed to
	// the monitor each Push (session scratch, see DESIGN.md §13).
	fwdView sigproc.Signal
}

// NewFusedMonitor builds a streaming fused monitor over the given channels.
// cfg.K is the vote quorum (0 means 1), clamped to the healthy-channel
// count as channels are quarantined.
func NewFusedMonitor(channels []FusedMonitorChannel, cfg FusedConfig) (*FusedMonitor, error) {
	if len(channels) == 0 {
		return nil, errors.New("core: fused monitor needs at least one channel")
	}
	fm := &FusedMonitor{k: cfg.K}
	for i, ch := range channels {
		mon, err := NewMonitor(ch.Reference, ch.Params, ch.Thresholds, ch.MonitorOptions...)
		if err != nil {
			return nil, fmt.Errorf("core: fused monitor channel %d (%s): %w", i, ch.Name, err)
		}
		hm, err := NewHealthMonitor(ch.Reference, ch.Health)
		if err != nil {
			return nil, fmt.Errorf("core: fused monitor channel %d (%s): %w", i, ch.Name, err)
		}
		fm.chans = append(fm.chans, &fusedMonChannel{
			name:    ch.Name,
			mon:     mon,
			health:  hm,
			pending: &sigproc.Signal{Rate: ch.Reference.Rate},
			rate:    ch.Reference.Rate,
		})
	}
	return fm, nil
}

// Push feeds one time-aligned chunk per channel (chunks[i] belongs to
// channel i; nil skips a channel this round) and returns any fused alerts
// the push produced. Each chunk is health-checked first: a chunk that
// completes an unhealthy window quarantines its channel, withdraws the
// channel's vote, and is not synchronized.
func (fm *FusedMonitor) Push(chunks []*sigproc.Signal) ([]FusedAlert, error) {
	if len(chunks) != len(fm.chans) {
		return nil, fmt.Errorf("core: %d chunks for %d channels", len(chunks), len(fm.chans))
	}
	for i, chunk := range chunks {
		ch := fm.chans[i]
		if chunk == nil || chunk.Len() == 0 {
			continue
		}
		if ch.health.Quarantined() && !ch.health.RecoveryEnabled() {
			continue
		}
		recBefore := ch.health.Recoveries()
		reason, err := ch.health.Push(chunk)
		if err != nil {
			return nil, fmt.Errorf("core: fused monitor channel %s: %w", ch.name, err)
		}
		if ch.health.Quarantined() {
			ch.voting = false
			ch.pending = nil
			continue
		}
		if ch.health.Recoveries() != recBefore {
			// The channel just served out its probation. The monitor's stream
			// position is still back at the quarantine point: bridge the
			// quarantined span with reference content so the DWM stays locked
			// to the reference timebase (see Monitor.BridgeGap), then rebuild
			// the pending holdback from the healthy tail buffered past the
			// last judged window. Alerts raised by the synthetic bridge are
			// discarded — reference content is not evidence — and the vote is
			// re-earned from post-recovery samples only.
			gap := ch.health.ClearedSamples() - ch.forwarded
			if gap > 0 {
				if _, err := ch.mon.BridgeGap(gap); err != nil {
					return nil, fmt.Errorf("core: fused monitor channel %s: %w", ch.name, err)
				}
				ch.forwarded += gap
			}
			if ch.pending == nil {
				ch.pending = &sigproc.Signal{Rate: ch.rate}
			} else {
				ch.pending.DropFront(ch.pending.Len())
			}
			if err := ch.pending.Concat(ch.health.BufferedTail()); err != nil {
				return nil, fmt.Errorf("core: fused monitor channel %s: %w", ch.name, err)
			}
			ch.voting = false
			continue
		}
		if reason != HealthOK {
			ch.voting = false
			ch.pending = nil
			continue
		}
		if err := ch.pending.Concat(chunk); err != nil {
			return nil, fmt.Errorf("core: fused monitor channel %s: %w", ch.name, err)
		}
		// Forward only samples trailing the health frontier by a full
		// window (see the type doc on detection lag).
		if clear := ch.health.ClearedSamples() - ch.health.WindowSamples() - ch.forwarded; clear > 0 {
			alerts, err := ch.mon.Push(ch.pending.SliceInto(&ch.fwdView, 0, clear))
			if err != nil {
				return nil, fmt.Errorf("core: fused monitor channel %s: %w", ch.name, err)
			}
			ch.pending.DropFront(clear)
			ch.forwarded += clear
			fusedPending.Observe(float64(ch.pending.Len()))
			if len(alerts) > 0 {
				ch.voting = true
			}
		}
		// Synchronize the next window as soon as its samples are here; it
		// is committed once health clears it.
		ch.mon.lookahead(ch.pending)
	}
	return fm.fuse(), nil
}

// fuse recomputes the quorum decision and emits an alert on its rising
// edge.
func (fm *FusedMonitor) fuse() []FusedAlert {
	votes, healthy := 0, 0
	var t float64
	for _, ch := range fm.chans {
		if elapsed := float64(ch.forwarded) / ch.rate; elapsed > t {
			t = elapsed
		}
		if ch.health.Quarantined() {
			continue
		}
		healthy++
		if ch.voting {
			votes++
		}
	}
	needed, intrusion := quorum(fm.k, votes, healthy)
	if !intrusion {
		fm.alerting = false
		return nil
	}
	if fm.alerting {
		return nil
	}
	fm.alerting = true
	a := FusedAlert{Time: t, Votes: votes, Healthy: healthy, Needed: needed}
	fm.alerts = append(fm.alerts, a)
	return []FusedAlert{a}
}

// Buffered returns the total samples withheld across all channels: pending
// samples trailing the health frontier plus each per-channel monitor's
// window buffer. It is the amount of data Flush is responsible for.
func (fm *FusedMonitor) Buffered() int {
	total := 0
	for _, ch := range fm.chans {
		if ch.pending != nil {
			total += ch.pending.Len()
		}
		total += ch.mon.Buffered()
	}
	return total
}

// Flush terminates the stream: every healthy channel's withheld tail — up
// to one full health window held back by the detection lag, plus the final
// partial DWM window — is health-judged, forwarded, and evaluated, and the
// fused verdict is recomputed one last time. Without Flush the detection
// lag silently eats the last seconds of every print. Push after Flush
// fails; Reset returns the monitor to service.
func (fm *FusedMonitor) Flush() ([]FusedAlert, error) {
	for _, ch := range fm.chans {
		if ch.health.Quarantined() {
			continue
		}
		// Judge the health monitor's buffered partial window first: a fault
		// confined to the tail must still quarantine, not be synchronized.
		if r := ch.health.Flush(); r != HealthOK {
			ch.voting = false
			ch.pending = nil
			continue
		}
		if ch.pending != nil && ch.pending.Len() > 0 {
			n := ch.pending.Len()
			alerts, err := ch.mon.Push(ch.pending)
			if err != nil {
				return nil, fmt.Errorf("core: fused monitor channel %s: %w", ch.name, err)
			}
			ch.pending.DropFront(n)
			ch.forwarded += n
			if len(alerts) > 0 {
				ch.voting = true
			}
		}
		alerts, err := ch.mon.Flush()
		if err != nil {
			return nil, fmt.Errorf("core: fused monitor channel %s: %w", ch.name, err)
		}
		if len(alerts) > 0 {
			ch.voting = true
		}
	}
	return fm.fuse(), nil
}

// Reset returns the fused monitor to its freshly constructed state so it
// can be pooled across print sessions: every per-channel monitor and health
// tracker resets, quarantines lift, votes clear. A reset monitor produces
// alerts identical to a freshly built one fed the same stream.
func (fm *FusedMonitor) Reset() {
	for _, ch := range fm.chans {
		ch.mon.Reset()
		ch.health.Reset()
		if ch.pending == nil {
			ch.pending = &sigproc.Signal{Rate: ch.rate}
		} else {
			ch.pending.DropFront(ch.pending.Len())
		}
		ch.forwarded = 0
		ch.voting = false
	}
	fm.alerting = false
	fm.alerts = nil
}

// Intrusion reports whether any fused alert has been raised.
func (fm *FusedMonitor) Intrusion() bool { return len(fm.alerts) > 0 }

// Alerts returns all fused alerts raised so far.
func (fm *FusedMonitor) Alerts() []FusedAlert { return append([]FusedAlert(nil), fm.alerts...) }

// ChannelStates snapshots every channel's health and vote, in configuration
// order.
func (fm *FusedMonitor) ChannelStates() []FusedChannelState {
	out := make([]FusedChannelState, len(fm.chans))
	for i, ch := range fm.chans {
		out[i] = FusedChannelState{
			Name:          ch.name,
			Quarantined:   ch.health.Quarantined(),
			Health:        ch.health.Reason(),
			QuarantinedAt: ch.health.QuarantinedAt(),
			Voting:        !ch.health.Quarantined() && ch.voting,
		}
	}
	return out
}
