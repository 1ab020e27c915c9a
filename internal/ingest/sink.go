package ingest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"nsync/internal/core"
	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

// Sink consumes one session's repaired, in-order sample stream. Exactly one
// goroutine (the session worker) calls a sink; implementations need no
// locking.
type Sink interface {
	// Push feeds in-order lane-interleaved samples for channel ch.
	Push(ch int, values []float64) error
	// Finish flushes buffered tails and returns the session's final verdict.
	Finish(reason string) (*Verdict, error)
}

// StatefulSink is a Sink whose detector state can be captured for a journal
// snapshot and restored into a recycled sink after a restart. The blob is
// opaque to the journal; a sink only needs to round-trip its own encoding.
type StatefulSink interface {
	Sink
	// CaptureState serializes the sink's per-stream detector state. The sink
	// keeps streaming unaffected.
	CaptureState() ([]byte, error)
	// RestoreState overwrites the sink's per-stream state with a capture
	// taken from a sink of the same trained configuration.
	RestoreState(state []byte) error
}

// unwrapSink walks wrapper sinks (routedSink, shadowSink, external wrappers
// exposing Unwrap) down to the innermost sink, where the stateful detector
// lives.
func unwrapSink(s Sink) Sink {
	for {
		u, ok := s.(interface{ Unwrap() Sink })
		if !ok {
			return s
		}
		s = u.Unwrap()
	}
}

// SinkFactory hands out sinks for admitted sessions and takes them back
// when sessions end, so the expensive trained state behind them (references,
// thresholds) can be pooled across prints. Acquire must reject a Hello whose
// channel layout the sink cannot serve. A factory must be safe for
// concurrent use.
type SinkFactory interface {
	Acquire(hello *Frame) (Sink, error)
	Release(s Sink)
}

// MonitorSink adapts a core.FusedMonitor to the Sink interface: it
// de-interleaves each channel's lane-major wire samples back into the
// channel-major sigproc layout and forwards them, collecting fused alerts
// along the way.
type MonitorSink struct {
	fm    *core.FusedMonitor
	specs []ChannelSpec

	// frames and chunks are push scratch: one de-interleaved frame per
	// channel and the chunk list handed to the fused monitor, which copies
	// what it keeps before Push returns. They survive Release with the sink,
	// so a pooled sink pushes without allocating (DESIGN.md §13).
	frames []sigproc.Signal
	chunks []*sigproc.Signal
}

// NewMonitorSink wraps a fused monitor whose channels (in order) have the
// given specs.
func NewMonitorSink(fm *core.FusedMonitor, specs []ChannelSpec) *MonitorSink {
	return &MonitorSink{
		fm: fm, specs: specs,
		frames: make([]sigproc.Signal, len(specs)),
		chunks: make([]*sigproc.Signal, len(specs)),
	}
}

// Push implements Sink.
func (s *MonitorSink) Push(ch int, values []float64) error {
	if ch < 0 || ch >= len(s.specs) {
		return fmt.Errorf("ingest: channel %d out of range", ch)
	}
	lanes := s.specs[ch].Lanes
	n := len(values) / lanes
	sig := &s.frames[ch]
	sig.Rate = s.specs[ch].Rate
	sig.Data = scratch.Resize(sig.Data, lanes)
	for l := range sig.Data {
		lane := scratch.Resize(sig.Data[l], n)
		for i := range lane {
			lane[i] = values[i*lanes+l]
		}
		sig.Data[l] = lane
	}
	s.chunks[ch] = sig
	_, err := s.fm.Push(s.chunks)
	s.chunks[ch] = nil
	return err
}

// Finish implements Sink: it flushes the fused monitor's withheld tails and
// snapshots the final fused verdict.
func (s *MonitorSink) Finish(reason string) (*Verdict, error) {
	if _, err := s.fm.Flush(); err != nil {
		return nil, err
	}
	v := &Verdict{Intrusion: s.fm.Intrusion(), Reason: reason}
	for _, a := range s.fm.Alerts() {
		v.Alerts = append(v.Alerts, VerdictAlert{Time: a.Time, Votes: a.Votes, Healthy: a.Healthy, Needed: a.Needed})
	}
	for i, st := range s.fm.ChannelStates() {
		name := st.Name
		if name == "" && i < len(s.specs) {
			name = s.specs[i].Name
		}
		v.Channels = append(v.Channels, VerdictChannel{
			Name: name, Quarantined: st.Quarantined,
			Health: st.Health.String(), Voting: st.Voting,
		})
	}
	return v, nil
}

// CaptureState implements StatefulSink: the fused monitor's full per-stream
// state, gob-encoded. This is what a session journal snapshot stores.
func (s *MonitorSink) CaptureState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.fm.CaptureState()); err != nil {
		return nil, fmt.Errorf("ingest: capture state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements StatefulSink. The monitor fully resets before
// applying the capture, so restoring into a recycled pooled sink is safe.
func (s *MonitorSink) RestoreState(state []byte) error {
	var st core.FusedMonitorState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&st); err != nil {
		return fmt.Errorf("ingest: restore state: %w", err)
	}
	return s.fm.RestoreState(&st)
}

// MonitorPool is a SinkFactory over recycled fused monitors: each Release
// resets the sink's monitor (core guarantees a reset monitor matches a fresh
// one) and parks the sink for the next session, so steady-state operation
// allocates no new monitors or push scratch. It admits only sessions whose
// channel layout and rate match the trained configuration.
type MonitorPool struct {
	// Build constructs a fresh fused monitor from the trained configuration.
	Build func() (*core.FusedMonitor, error)
	// Channels is the expected channel layout, in order.
	Channels []ChannelSpec
	// MaxIdle bounds how many reset monitors are kept (default 4).
	MaxIdle int

	mu   sync.Mutex
	idle []*MonitorSink
}

// Acquire implements SinkFactory.
func (p *MonitorPool) Acquire(hello *Frame) (Sink, error) {
	if err := matchChannelSpecs(hello.Channels, p.Channels); err != nil {
		return nil, err
	}
	p.mu.Lock()
	var ms *MonitorSink
	if n := len(p.idle); n > 0 {
		ms, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	p.mu.Unlock()
	if ms != nil {
		return ms, nil
	}
	fm, err := p.Build()
	if err != nil {
		return nil, err
	}
	return NewMonitorSink(fm, p.Channels), nil
}

// Release implements SinkFactory.
func (p *MonitorPool) Release(s Sink) {
	ms, ok := s.(*MonitorSink)
	if !ok {
		return
	}
	ms.fm.Reset()
	maxIdle := p.MaxIdle
	if maxIdle <= 0 {
		maxIdle = 4
	}
	p.mu.Lock()
	if len(p.idle) < maxIdle {
		p.idle = append(p.idle, ms)
	}
	p.mu.Unlock()
}
