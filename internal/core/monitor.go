package core

import (
	"errors"
	"fmt"
	"math"

	"nsync/internal/dwm"
	"nsync/internal/obs"
	"nsync/internal/sigproc"
)

// Streaming-path metrics (see DESIGN.md §10): per-window processing
// latency and the pending-sample buffer occupancy after each Push.
var (
	monitorWindowTimer = obs.GetTimer("monitor.window")
	monitorBuffer      = obs.GetHistogram("monitor.buffer")
)

// Alert describes an intrusion detected by a streaming Monitor.
type Alert struct {
	// Sub is the sub-module that fired.
	Sub SubModule
	// WindowIndex is the DWM window index at which it fired.
	WindowIndex int
	// Time is the window start time in seconds since the print began.
	Time float64
	// Value and Limit are the offending feature value and its threshold.
	Value, Limit float64
}

// String implements fmt.Stringer.
func (a Alert) String() string {
	return fmt.Sprintf("intrusion: %s=%.4g > %.4g at window %d (t=%.1fs)",
		a.Sub, a.Value, a.Limit, a.WindowIndex, a.Time)
}

// Monitor is the real-time variant of the NSYNC IDS: it consumes observed
// samples as a print progresses, synchronizes them against the reference
// with streaming DWM, and raises alerts as soon as any discriminator
// sub-module fires — without waiting for the print to finish. This is the
// real-time operation DTW cannot natively provide (Section VI-A).
//
// A Monitor is not safe for concurrent use; feed it from a single goroutine.
type Monitor struct {
	sync       *dwm.Synchronizer
	reference  *sigproc.Signal
	dist       sigproc.DistanceFunc
	thresholds Thresholds
	filterN    int

	buf *sigproc.Signal // pending observed samples not yet formed into a window

	consumed int // samples consumed into windows so far
	cdisp    float64
	prevH    float64
	// rawH/rawV hold the trailing raw values for the min filter. With
	// filterN > 0 they are fixed-size rings (the min is order-independent,
	// so overwrite position doesn't matter); with filterN <= 0 they grow
	// over the whole stream, preserving the min-over-history semantics.
	rawH, rawV       []float64
	rawHPos, rawVPos int
	alerts           []Alert
	features         Features
	flushed          bool

	// ahead, aheadV and aheadErr memoise the fallible half of the next
	// window's step, which lookahead computes before the window's samples
	// are pushed. The memo is keyed by the window index (aheadIdx, -1 when
	// empty) and by every sample bit of the window (aheadWin), so a hit is
	// the computation a miss would run; Reset empties it.
	ahead    dwm.Proposal
	aheadV   float64
	aheadErr error
	aheadIdx int

	// Session scratch (DESIGN.md §13): the sliding observed-window and
	// displaced-reference views resliced per step, the padded final window
	// rebuilt per Flush, and the memoised window. All are fully overwritten
	// before use and survive Reset, so a pooled long-running monitor stops
	// allocating.
	winView  sigproc.Signal
	refView  sigproc.Signal
	flushWin *sigproc.Signal
	aheadWin *sigproc.Signal
}

// NewMonitor builds a streaming monitor from a trained detector
// configuration. The detector's synchronizer must be DWM-based (streaming
// DTW is not supported, mirroring the paper's observation).
func NewMonitor(reference *sigproc.Signal, params dwm.Params, thresholds Thresholds, opts ...MonitorOption) (*Monitor, error) {
	s, err := dwm.NewSynchronizer(reference, params)
	if err != nil {
		return nil, err
	}
	m := &Monitor{
		sync:       s,
		reference:  reference,
		dist:       sigproc.CorrelationDistance,
		thresholds: thresholds,
		filterN:    DefaultFilterWindow,
		buf:        &sigproc.Signal{Rate: reference.Rate},
		aheadIdx:   -1,
	}
	m.features.IndexRate = reference.Rate / float64(s.SampleParams().NHop)
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// MonitorOption configures a Monitor.
type MonitorOption func(*Monitor)

// WithMonitorDistance replaces the default correlation vertical distance.
func WithMonitorDistance(d sigproc.DistanceFunc) MonitorOption {
	return func(m *Monitor) { m.dist = d }
}

// WithMonitorFilterWindow changes the spike-suppression window.
func WithMonitorFilterWindow(n int) MonitorOption {
	return func(m *Monitor) { m.filterN = n }
}

// Push feeds newly observed samples into the monitor and returns any alerts
// raised by the windows completed by those samples. The sample chunk must
// have the reference's channel count; chunks may be any length.
func (m *Monitor) Push(chunk *sigproc.Signal) ([]Alert, error) {
	if chunk.Len() == 0 {
		// Nothing to consume: an idle poll, a nil chunk, or a zero-length
		// slice. Not an error — live capture loops may legitimately wake
		// with no new samples.
		return nil, nil
	}
	if m.flushed {
		return nil, errors.New("core: Push after Flush; Reset the monitor to start a new stream")
	}
	if chunk.Channels() != m.reference.Channels() {
		return nil, fmt.Errorf("core: chunk has %d channels, want %d", chunk.Channels(), m.reference.Channels())
	}
	if err := m.buf.Concat(chunk); err != nil {
		return nil, err
	}
	sp := m.sync.SampleParams()
	var newAlerts []Alert
	for {
		i := m.sync.WindowIndex()
		start := i*sp.NHop - m.consumed
		if start+sp.NWin > m.buf.Len() {
			break
		}
		win := m.buf.SliceInto(&m.winView, start, start+sp.NWin)
		alerts, err := m.step(i, win)
		if err != nil {
			return newAlerts, err
		}
		newAlerts = append(newAlerts, alerts...)
	}
	// Drop samples that can no longer be part of any future window,
	// compacting the buffer in place so its capacity is reused.
	nextStart := m.sync.WindowIndex()*sp.NHop - m.consumed
	if nextStart > 0 {
		m.buf.DropFront(nextStart)
		m.consumed += nextStart
	}
	monitorBuffer.Observe(float64(m.buf.Len()))
	return newAlerts, nil
}

// BridgeGap feeds n synthetic samples of reference content through the
// normal Push path, holding the current alignment. It exists for the gap a
// health quarantine opens in a stream: the quarantined span must not be
// judged (its samples are sensor garbage, not evidence about the print),
// but simply skipping it would shear the DWM's stream position away from
// the reference timebase and every later window would alarm on a phantom
// displacement. Bridging with the reference's own samples at the held
// alignment is the same presumed-benign prior Flush uses for its padding:
// the TDE re-finds h ≈ prevH, c_disp and v_dist contributions are ≈ 0, and
// only real post-recovery samples argue for an intrusion. The per-sample
// clamp holds the reference's final value past its end, exactly as in
// Flush.
func (m *Monitor) BridgeGap(n int) ([]Alert, error) {
	if n <= 0 {
		return nil, nil
	}
	bn := m.reference.Len()
	base := m.consumed + m.buf.Len() + int(m.prevH)
	fill := sigproc.New(m.reference.Rate, m.reference.Channels(), n)
	for c := range fill.Data {
		for j := 0; j < n; j++ {
			src := base + j
			if src < 0 {
				src = 0
			}
			if src >= bn {
				src = bn - 1
			}
			fill.Data[c][j] = m.reference.Data[c][src]
		}
	}
	return m.Push(fill)
}

// step processes one complete observed window. It is transactional: every
// fallible computation (the DWM proposal and the vertical distance) runs
// before any state mutates, so a failed window leaves the synchronizer,
// the feature arrays, and the filter buffers exactly where they were — the
// same window is retried by the next Push instead of being silently
// skipped with Features desynced from WindowsProcessed. The fallible half
// comes from the lookahead memo when it was computed on this window.
func (m *Monitor) step(i int, win *sigproc.Signal) ([]Alert, error) {
	tw := monitorWindowTimer.Start()
	p, v, err := m.ahead, m.aheadV, m.aheadErr
	if m.aheadIdx != i || !sameBits(win, m.aheadWin) {
		p, v, err = m.propose(i, win)
	}
	if err != nil {
		return nil, err
	}

	// Nothing below can fail: commit the synchronizer step and mutate.
	m.sync.Commit(p)
	hf := float64(p.HDisp)
	m.cdisp += math.Abs(hf - m.prevH)
	m.prevH = hf

	m.rawH = pushTrailing(m.rawH, &m.rawHPos, math.Abs(hf), m.filterN)
	m.rawV = pushTrailing(m.rawV, &m.rawVPos, v, m.filterN)
	hFilt := minOf(m.rawH)
	vFilt := minOf(m.rawV)

	m.features.CDisp = append(m.features.CDisp, m.cdisp)
	m.features.HDist = append(m.features.HDist, hFilt)
	m.features.VDist = append(m.features.VDist, vFilt)

	sp := m.sync.SampleParams()
	t := float64(i*sp.NHop) / m.reference.Rate
	var alerts []Alert
	if m.cdisp > m.thresholds.CC {
		alerts = append(alerts, Alert{Sub: SubCDisp, WindowIndex: i, Time: t, Value: m.cdisp, Limit: m.thresholds.CC})
	}
	if hFilt > m.thresholds.HC {
		alerts = append(alerts, Alert{Sub: SubHDist, WindowIndex: i, Time: t, Value: hFilt, Limit: m.thresholds.HC})
	}
	if vFilt > m.thresholds.VC {
		alerts = append(alerts, Alert{Sub: SubVDist, WindowIndex: i, Time: t, Value: vFilt, Limit: m.thresholds.VC})
	}
	m.alerts = append(m.alerts, alerts...)
	monitorWindowTimer.Stop(tw)
	return alerts, nil
}

// propose computes the fallible half of window i's step, the DWM proposal
// and the vertical distance against the displaced reference window (Eq.
// 16), without mutating any stream state. It is a pure function of the
// window's samples, the reference, and the synchronizer's position, which
// only committing window i advances.
func (m *Monitor) propose(i int, win *sigproc.Signal) (dwm.Proposal, float64, error) {
	p, err := m.sync.Propose(win)
	if err != nil {
		return p, 0, err
	}
	sp := m.sync.SampleParams()
	// Vertical distance against the displaced reference window (Eq. 16).
	lo := i*sp.NHop + p.HDisp
	bn := m.reference.Len()
	if lo < 0 {
		lo = 0
	}
	if lo+sp.NWin > bn {
		lo = bn - sp.NWin
	}
	v, err := sigproc.MultiChannelDistance(m.dist, win, m.reference.SliceInto(&m.refView, lo, lo+sp.NWin))
	return p, v, err
}

// lookahead fills the memo with the next window's proposal when the
// buffered samples followed by next complete that window, so the window's
// DWM work runs when its samples arrive rather than when they are pushed.
// A memo already filled for the next window is kept. next is not consumed:
// the same samples must still be pushed for the window to be committed.
func (m *Monitor) lookahead(next *sigproc.Signal) {
	i := m.sync.WindowIndex()
	if m.flushed || m.aheadIdx == i {
		return
	}
	sp := m.sync.SampleParams()
	start := i*sp.NHop - m.consumed
	have := m.buf.Len()
	if start < 0 || start+sp.NWin > have+next.Len() ||
		next.Len() > 0 && next.Channels() != m.reference.Channels() {
		return
	}
	if m.aheadWin == nil {
		m.aheadWin = sigproc.New(m.reference.Rate, m.reference.Channels(), sp.NWin)
	}
	for c, lane := range m.aheadWin.Data {
		k := 0
		if start < have {
			k = copy(lane, m.buf.Data[c][start:])
		}
		if k < sp.NWin {
			copy(lane[k:], next.Data[c][max(start-have, 0):])
		}
	}
	m.ahead, m.aheadV, m.aheadErr = m.propose(i, m.aheadWin)
	m.aheadIdx = i
}

// sameBits reports whether two equally shaped signals hold the same
// samples, bit for bit.
func sameBits(a, b *sigproc.Signal) bool {
	for c, lane := range a.Data {
		other := b.Data[c][:len(lane)]
		for j, x := range lane {
			if math.Float64bits(x) != math.Float64bits(other[j]) {
				return false
			}
		}
	}
	return true
}

// Buffered returns how many pushed samples are sitting in the monitor's
// buffer, not yet consumed into a complete DWM window. The buffer always
// retains the overlap between consecutive windows (NWin-NHop samples), so a
// non-zero value does not by itself mean unanalyzed data; samples the
// discriminator has never seen exist exactly when Flush would evaluate a
// final window.
func (m *Monitor) Buffered() int { return m.buf.Len() }

// Flush evaluates the stream's final partial window. Without it, samples
// buffered at stream end but too few to complete the next DWM window are
// dropped forever — an attack burst confined to the print's last seconds
// would be silently ignored. Flush pads the pending partial window to a
// full window with the reference's own aligned samples and runs it through
// the normal discriminator step, returning any alerts it raises. When the
// final window's span extends past the reference's end the tail is skipped
// instead: there is no reference content left to judge it against, and the
// clipped TDE search would manufacture a displacement from the overhang.
//
// Flush is a stream terminator: it does nothing when every pushed sample
// has already been analyzed, a second Flush is a no-op, and Push after
// Flush is an error (the padded synthetic window must stay the last).
// Reset returns a flushed monitor to service.
func (m *Monitor) Flush() ([]Alert, error) {
	if m.flushed {
		return nil, nil
	}
	defer func() {
		// The stream is over either way: drop the buffer (including the
		// retained inter-window overlap) so Buffered reads 0 after Flush.
		// Truncation keeps the backing for the next session after Reset.
		m.flushed = true
		m.buf.DropFront(m.buf.Len())
	}()
	sp := m.sync.SampleParams()
	i := m.sync.WindowIndex()
	start := i*sp.NHop - m.consumed
	if start < 0 || start > m.buf.Len() {
		// Push failed mid-stream and left the buffer trimmed short; there is
		// no coherent final window to evaluate.
		return nil, nil
	}
	tail := m.buf.Len() - start
	// Samples the discriminator has never seen: everything past the end of
	// the last analyzed window (which overlaps the pending one by NWin-NHop
	// samples). No unseen samples means no final window to synthesize.
	unseen := tail
	if i > 0 {
		unseen = tail - (sp.NWin - sp.NHop)
	}
	if unseen <= 0 {
		return nil, nil
	}
	if i*sp.NHop+sp.NWin > m.reference.Len() {
		// The final window's nominal span extends past the reference's end,
		// so its true alignment is not representable: the TDE search region
		// is clipped at the reference boundary and the estimate is forced to
		// the edge, reporting a displacement equal to the overhang no matter
		// what the samples contain. Every benign print that runs a fraction
		// of a hop longer than the reference would flush a spurious c_disp
		// alarm. The reference print has ended — there is nothing sound to
		// compare the tail against — so skip it. A genuinely duration-
		// extending attack is still caught by Push: its complete windows
		// edge-anchor with h_dist growing a full hop per window.
		return nil, nil
	}
	// The padded window is session scratch, rebuilt (fully overwritten:
	// observed prefix below, reference padding after) on every Flush.
	win := m.flushWin
	if win == nil {
		win = sigproc.New(m.reference.Rate, m.reference.Channels(), sp.NWin)
		m.flushWin = win
	}
	partial := m.buf.SliceInto(&m.winView, start, m.buf.Len())
	for c := range partial.Data {
		copy(win.Data[c], partial.Data[c])
	}
	// Pad the unseen region with the reference's own samples at the current
	// alignment, not zeros: a zero tail looks like a flat attack and jolts
	// the TDE into a large spurious displacement — a c_disp false alarm at
	// every benign stream end that isn't window-aligned. Reference padding
	// is the opposite prior: the missing future is presumed benign, so only
	// the real tail samples argue for an intrusion. The per-sample clamp
	// matters: when the observed run outlasts the reference, a block-copy
	// from a shifted-down start would place pad content hundreds of samples
	// off the true alignment — itself a TDE jolt — so instead the alignment
	// is kept and the reference's final value is held past its end.
	base := i*sp.NHop + int(m.prevH)
	bn := m.reference.Len()
	for c := range win.Data {
		for j := tail; j < sp.NWin; j++ {
			src := base + j
			if src < 0 {
				src = 0
			}
			if src >= bn {
				src = bn - 1
			}
			win.Data[c][j] = m.reference.Data[c][src]
		}
	}
	return m.step(i, win)
}

// Reset returns the monitor to its freshly constructed state so it can be
// pooled across print sessions without re-running NewMonitor: the trained
// configuration (reference, thresholds, distance, filter window) is kept,
// every per-stream accumulator is cleared, and a reset monitor produces
// alerts identical to a fresh one fed the same stream.
func (m *Monitor) Reset() {
	m.sync.Reset()
	m.buf.DropFront(m.buf.Len())
	m.consumed = 0
	m.cdisp = 0
	m.prevH = 0
	m.rawH = m.rawH[:0]
	m.rawV = m.rawV[:0]
	m.rawHPos, m.rawVPos = 0, 0
	// Truncate rather than drop the accumulators: Alerts and Features hand
	// out copies, so the backing arrays are never shared with callers.
	m.alerts = m.alerts[:0]
	m.features.CDisp = m.features.CDisp[:0]
	m.features.HDist = m.features.HDist[:0]
	m.features.VDist = m.features.VDist[:0]
	m.flushed = false
	m.aheadIdx = -1
}

// Alerts returns all alerts raised so far.
func (m *Monitor) Alerts() []Alert { return append([]Alert(nil), m.alerts...) }

// Intrusion reports whether any alert has been raised.
func (m *Monitor) Intrusion() bool { return len(m.alerts) > 0 }

// Features snapshots the feature arrays accumulated so far.
func (m *Monitor) Features() *Features {
	return &Features{
		CDisp:     append([]float64(nil), m.features.CDisp...),
		HDist:     append([]float64(nil), m.features.HDist...),
		VDist:     append([]float64(nil), m.features.VDist...),
		IndexRate: m.features.IndexRate,
	}
}

// WindowsProcessed returns how many observed windows have been analyzed.
func (m *Monitor) WindowsProcessed() int { return m.sync.WindowIndex() }

// pushTrailing records v among the trailing n raw values. For n > 0 the
// buffer becomes a fixed ring once full — pos cycles over the oldest slot —
// which keeps exactly the last n values without the old reslice-forward
// scheme's periodic reallocation. For n <= 0 it grows unboundedly (min over
// the whole history). Only the multiset matters: the consumer is minOf.
func pushTrailing(buf []float64, pos *int, v float64, n int) []float64 {
	if n <= 0 || len(buf) < n {
		return append(buf, v)
	}
	buf[*pos] = v
	*pos = (*pos + 1) % n
	return buf
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
