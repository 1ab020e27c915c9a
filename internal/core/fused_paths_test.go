package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"nsync/internal/sigproc"
)

// The fused paths a window crosses between its samples arriving and health
// clearing it: a journal restore, a quarantine, and a probationary recovery
// through the monitor's gap bridge. Each test pins what the stream yields,
// so a change to when a window's DWM work runs cannot move an alert.

// monitor builds a streaming fused monitor over the fixture's trained
// channels with the given health configuration.
func (fx *fusedFixture) monitor(t *testing.T, health HealthConfig) *FusedMonitor {
	t.Helper()
	var chans []FusedMonitorChannel
	for c, ref := range fx.refs {
		th, err := fx.fd.Detector(c).Thresholds()
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, FusedMonitorChannel{
			Name: fx.fd.Channels()[c], Reference: ref,
			Params: testDWMParams(), Thresholds: th, Health: health,
		})
	}
	fm, err := NewFusedMonitor(chans, FusedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

// pushFrames streams samples [from, to) of every channel into fm in frames
// of frame samples and returns the fused alerts raised. each, when set,
// runs after every push with the frame's end.
func pushFrames(t *testing.T, fm *FusedMonitor, obs []*sigproc.Signal, from, to, frame int, each func(end int)) []FusedAlert {
	t.Helper()
	var all []FusedAlert
	chunks := make([]*sigproc.Signal, len(obs))
	for pos := from; pos < to; pos += frame {
		end := min(pos+frame, to)
		for c, s := range obs {
			chunks[c] = s.SliceClamped(pos, end)
		}
		alerts, err := fm.Push(chunks)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, alerts...)
		if each != nil {
			each(end)
		}
	}
	return all
}

// TestFusedRestoreWithWindowInFlight captures a fused monitor mid-print,
// while every channel holds samples that complete its next window but are
// not yet cleared (so the window's proposal is already computed, and is not
// part of the captured state), round-trips the state through gob as
// MonitorSink does,
// restores it into a recycled monitor and finishes the print. The verdict,
// the fused alerts and each channel's per-window features must equal the
// uninterrupted run's.
func TestFusedRestoreWithWindowInFlight(t *testing.T) {
	fx := newFusedFixture(t, 0)
	obs := fx.benignRun()
	att := obs[1]
	for i := att.Len() / 2; i < att.Len(); i++ {
		att.Data[0][i] = fx.rng.NormFloat64() * 2
	}
	n := obs[0].Len()
	// 1510 samples in 0.1 s frames: the health frontier is at 1400, the
	// monitors have consumed 1200, and the 310 samples between complete
	// each channel's next window.
	const split = 1510

	uninterrupted := fx.monitor(t, HealthConfig{})
	pushFrames(t, uninterrupted, obs, 0, split, 10, nil)
	for c, ch := range uninterrupted.chans {
		if ch.mon.aheadIdx != ch.mon.WindowsProcessed() {
			t.Fatalf("fixture: channel %d holds no precomputed window at the capture point", c)
		}
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(uninterrupted.CaptureState()); err != nil {
		t.Fatal(err)
	}
	var st FusedMonitorState
	if err := gob.NewDecoder(&blob).Decode(&st); err != nil {
		t.Fatal(err)
	}
	restored := fx.monitor(t, HealthConfig{})
	pushFrames(t, restored, fx.maliciousRun(), 0, 700, 10, nil)
	if err := restored.RestoreState(&st); err != nil {
		t.Fatal(err)
	}
	before := make([]int, len(uninterrupted.chans))
	for c, ch := range uninterrupted.chans {
		before[c] = ch.mon.WindowsProcessed()
	}

	tailA := pushFrames(t, uninterrupted, obs, split, n, 10, nil)
	tailB := pushFrames(t, restored, obs, split, n, 10, nil)
	flushA, err := uninterrupted.Flush()
	if err != nil {
		t.Fatal(err)
	}
	flushB, err := restored.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(append(tailA, flushA...), append(tailB, flushB...)) {
		t.Fatalf("tail alerts diverge:\nuninterrupted: %v %v\nrestored:      %v %v", tailA, flushA, tailB, flushB)
	}
	if uninterrupted.Intrusion() != restored.Intrusion() ||
		!reflect.DeepEqual(uninterrupted.Alerts(), restored.Alerts()) ||
		!reflect.DeepEqual(uninterrupted.ChannelStates(), restored.ChannelStates()) {
		t.Fatalf("verdicts diverge:\nuninterrupted: %v %+v\nrestored:      %v %+v",
			uninterrupted.Alerts(), uninterrupted.ChannelStates(), restored.Alerts(), restored.ChannelStates())
	}
	for c := range uninterrupted.chans {
		// Features restart empty on restore (reporting history), so the
		// restored run's features are the uninterrupted run's after the
		// capture point.
		fa := uninterrupted.chans[c].mon.Features()
		fb := restored.chans[c].mon.Features()
		k := before[c]
		want := &Features{CDisp: fa.CDisp[k:], HDist: fa.HDist[k:], VDist: fa.VDist[k:], IndexRate: fa.IndexRate}
		if !reflect.DeepEqual(fb, want) {
			t.Errorf("channel %d features after restore diverge from the uninterrupted run's", c)
		}
	}
	if want := []FusedAlert{{Time: 14, Votes: 1, Healthy: 3, Needed: 1}}; !reflect.DeepEqual(restored.Alerts(), want) {
		t.Errorf("fused alerts = %v, want %v", restored.Alerts(), want)
	}
}

// TestFusedQuarantineInsideWithheldWindow: channel 0 goes flat at 16.5 s,
// after the samples that complete its next window have arrived (and its
// proposal was computed) and while the health window [16 s, 18 s) is
// withheld by the detection lag. The channel must be quarantined with the
// withheld samples and the precomputed window discarded, and the other two
// channels keep the verdict.
func TestFusedQuarantineInsideWithheldWindow(t *testing.T) {
	fx := newFusedFixture(t, 0)
	obs := fx.benignRun()
	obs[0] = flatSpan(obs[0], 1650, obs[0].Len())
	att := obs[2]
	for i := 2000; i < att.Len(); i++ {
		att.Data[0][i] = fx.rng.NormFloat64() * 2
	}
	fm := fx.monitor(t, HealthConfig{})
	alerts := pushFrames(t, fm, obs, 0, obs[0].Len(), 10, memoAtQuarantine(t, fm.chans[0]))
	flushed, err := fm.Flush()
	if err != nil {
		t.Fatal(err)
	}
	alerts = append(alerts, flushed...)
	if want := []FusedAlert{{Time: 22, Votes: 1, Healthy: 2, Needed: 1}}; !reflect.DeepEqual(alerts, want) {
		t.Errorf("fused alerts = %v, want %v", alerts, want)
	}
	want := []FusedChannelState{
		{Name: "acc", Quarantined: true, Health: Flat, QuarantinedAt: 18},
		{Name: "mag"},
		{Name: "aud", Voting: true},
	}
	if got := fm.ChannelStates(); !reflect.DeepEqual(got, want) {
		t.Errorf("channel states = %+v, want %+v", got, want)
	}
	checkChannelAlerts(t, fm, []channelAlerts{
		{windows: 63},
		{windows: 107},
		{windows: 119, alerts: 82, first: []Alert{
			{Sub: SubVDist, WindowIndex: 81, Time: 20.25, Value: 0.472766626689227, Limit: 0.0023217792128737867},
			{Sub: SubCDisp, WindowIndex: 82, Time: 20.5, Value: 12, Limit: 9.3},
		}},
	})
}

// memoAtQuarantine returns a per-push check that fails the test unless ch
// held a precomputed proposal for its next window when it was quarantined.
func memoAtQuarantine(t *testing.T, ch *fusedMonChannel) func(int) {
	held, checked := false, false
	return func(end int) {
		switch {
		case !ch.health.Quarantined():
			held = ch.mon.aheadIdx == ch.mon.WindowsProcessed()
		case !checked:
			checked = true
			if !held {
				t.Errorf("channel %s held no precomputed window when quarantined at sample %d", ch.name, end)
			}
		}
	}
}

// channelAlerts pins one channel's monitor: the windows it processed (-1
// skips the check), how many alerts it raised, and the first of them.
type channelAlerts struct {
	windows, alerts int
	first           []Alert
}

func checkChannelAlerts(t *testing.T, fm *FusedMonitor, want []channelAlerts) {
	t.Helper()
	for c, ch := range fm.chans {
		w := want[c]
		if got := ch.mon.WindowsProcessed(); w.windows >= 0 && got != w.windows {
			t.Errorf("channel %d processed %d windows, want %d", c, got, w.windows)
		}
		a := ch.mon.Alerts()
		if len(a) != w.alerts || !reflect.DeepEqual(a[:len(w.first)], w.first) {
			t.Errorf("channel %d raised %d alerts starting %v, want %d starting %v", c, len(a), a[:min(len(a), 2)], w.alerts, w.first)
		}
	}
}

// TestFusedRecoveryThroughBridgeAlerts: with probation enabled, channel 0
// goes flat for two health windows, serves out its probation, is bridged
// back onto the reference timebase, and then observes an attack. Pin the
// alerts the recovered channel yields.
func TestFusedRecoveryThroughBridgeAlerts(t *testing.T) {
	fx := newFusedFixture(t, 0)
	obs := fx.benignRun()
	obs[0] = flatSpan(obs[0], 1000, 1400)
	rng := rand.New(rand.NewSource(84))
	for i := 2400; i < obs[0].Len(); i++ {
		obs[0].Data[0][i] = rng.NormFloat64() * 2
	}
	fm := fx.monitor(t, HealthConfig{RecoveryWindows: 2})
	alerts := pushFrames(t, fm, obs, 0, obs[0].Len(), 10, memoAtQuarantine(t, fm.chans[0]))
	flushed, err := fm.Flush()
	if err != nil {
		t.Fatal(err)
	}
	alerts = append(alerts, flushed...)
	if want := []FusedAlert{{Time: 26, Votes: 1, Healthy: 3, Needed: 1}}; !reflect.DeepEqual(alerts, want) {
		t.Errorf("fused alerts = %v, want %v", alerts, want)
	}
	want := []FusedChannelState{
		{Name: "acc", QuarantinedAt: 10, Voting: true},
		{Name: "mag"},
		{Name: "aud"},
	}
	if got := fm.ChannelStates(); !reflect.DeepEqual(got, want) {
		t.Errorf("channel states = %+v, want %+v", got, want)
	}
	checkChannelAlerts(t, fm, []channelAlerts{
		{windows: 119, alerts: 51, first: []Alert{
			{Sub: SubVDist, WindowIndex: 97, Time: 24.25, Value: 0.7646424457601246, Limit: 0.0023871263466650806},
			{Sub: SubCDisp, WindowIndex: 98, Time: 24.5, Value: 10, Limit: 9.3},
		}},
		{windows: -1},
		{windows: -1},
	})
}
