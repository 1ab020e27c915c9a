package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"nsync/internal/dwm"
	"nsync/internal/obs"
	"nsync/internal/sigproc"
)

// noiseLanes builds an n-sample white-noise signal with the given lanes.
func noiseLanes(rng *rand.Rand, rate float64, lanes, n int) *sigproc.Signal {
	s := sigproc.New(rate, lanes, n)
	for _, lane := range s.Data {
		for i := range lane {
			lane[i] = rng.NormFloat64()
		}
	}
	return s
}

// nsyncdShaped builds a fused monitor shaped like nsyncd's model — ACC
// with 3 lanes at 400 Hz, MAG with 3 lanes at 100 Hz, AUD with 1 lane at
// 4800 Hz; t_win 4, t_hop 2, t_ext 2, t_sigma 1, η 0.1 — over seconds of
// synthetic reference noise, with a benign observation of each channel as
// long as its reference. Thresholds never fire: the callers measure work,
// not verdicts.
func nsyncdShaped(tb testing.TB, seconds float64) (*FusedMonitor, []*sigproc.Signal) {
	tb.Helper()
	rng := rand.New(rand.NewSource(26))
	params := dwm.Params{TWin: 4, THop: 2, TExt: 2, TSigma: 1, Eta: 0.1}
	never := Thresholds{CC: math.Inf(1), HC: math.Inf(1), VC: math.Inf(1)}
	var chans []FusedMonitorChannel
	var streams []*sigproc.Signal
	for _, c := range []struct {
		name  string
		lanes int
		rate  float64
	}{{"ACC", 3, 400}, {"MAG", 3, 100}, {"AUD", 1, 4800}} {
		ref := noiseLanes(rng, c.rate, c.lanes, int(seconds*c.rate))
		s := ref.Clone()
		for _, lane := range s.Data {
			for i := range lane {
				lane[i] += 0.05 * rng.NormFloat64()
			}
		}
		chans = append(chans, FusedMonitorChannel{Name: c.name, Reference: ref, Params: params, Thresholds: never})
		streams = append(streams, s)
	}
	fm, err := NewFusedMonitor(chans, FusedConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return fm, streams
}

// pushSeconds streams every channel into fm in frames of 0.1 s of sensor
// time, one frame per channel per push.
func pushSeconds(tb testing.TB, fm *FusedMonitor, streams []*sigproc.Signal) {
	tb.Helper()
	chunks := make([]*sigproc.Signal, len(streams))
	for f := 0; ; f++ {
		more := false
		for c, s := range streams {
			n := int(0.1 * s.Rate)
			chunks[c] = s.SliceClamped(f*n, (f+1)*n)
			more = more || chunks[c].Len() > 0
		}
		if !more {
			return
		}
		if _, err := fm.Push(chunks); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestFusedFlushCommitsPrecomputedWindows: with nsyncd's window shape, the
// last window of a print as long as its reference is complete one health
// window before the print ends. Its DWM proposal runs when its samples
// arrive, so Flush only commits it: no proposal runs inside Flush.
func TestFusedFlushCommitsPrecomputedWindows(t *testing.T) {
	fm, streams := nsyncdShaped(t, 20)
	pushSeconds(t, fm, streams)
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	steps := obs.GetTimer("dwm.step").Histogram()
	before := steps.Count()
	if _, err := fm.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := steps.Count() - before; n != 0 {
		t.Errorf("Flush ran %d DWM proposals, want 0", n)
	}
	for c, ch := range fm.chans {
		if got := ch.mon.WindowsProcessed(); got != 9 {
			t.Errorf("channel %d processed %d windows, want 9", c, got)
		}
	}
}

// BenchmarkFusedMonitorFlush times the verdict path of an nsyncd-shaped
// print: the stream is pushed with the timer stopped and Flush alone is
// timed. proposals/op counts the DWM proposals Flush runs. Each iteration
// pushes a whole print untimed, so pass a fixed count (-benchtime 20x).
func BenchmarkFusedMonitorFlush(b *testing.B) {
	fm, streams := nsyncdShaped(b, 20)
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	steps := obs.GetTimer("dwm.step").Histogram()
	var proposals int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fm.Reset()
		pushSeconds(b, fm, streams)
		obs.SetEnabled(true)
		before := steps.Count()
		b.StartTimer()
		if _, err := fm.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		proposals += steps.Count() - before
		obs.SetEnabled(prev)
	}
	b.ReportMetric(float64(proposals)/float64(b.N), "proposals/op")
}

// sameEncoding fails the test unless a and b gob-encode to the same bytes,
// which compares every float bit for bit.
func sameEncoding(t *testing.T, what string, a, b any) {
	t.Helper()
	var ba, bb bytes.Buffer
	if err := gob.NewEncoder(&ba).Encode(a); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&bb).Encode(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatalf("%s differs with lookahead:\n got %+v\nwant %+v", what, a, b)
	}
}

// TestMonitorLookaheadCannotChangeOutput feeds two monitors the same
// randomly chunked pushes, bridges, state round trips, resets and final
// Flush; before every push one of them is handed a lookahead: the true next
// samples, the true samples with one bit flipped, too few samples, nil, or
// a chunk with the wrong lane count. Alerts, features, window counts and
// captured state must match the monitor that never looked ahead, bit for
// bit.
func TestMonitorLookaheadCannotChangeOutput(t *testing.T) {
	fx := newFusedFixture(t, 0)
	rng := rand.New(rand.NewSource(27))
	type stream struct {
		ref *sigproc.Signal
		th  Thresholds
		s   *sigproc.Signal
	}
	var streams []stream
	for c, ref := range fx.refs {
		th, err := fx.fd.Detector(c).Thresholds()
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream{ref, th, jittered(fx.rng, ref, 300)}, stream{ref, th, corrupted(fx.rng, ref)})
	}
	// A three-lane stream, and one whose NaN sample fails every window
	// that holds it, so failed steps are retried push after push.
	ref3 := noiseLanes(rng, 100, 3, 3000)
	s3 := ref3.Clone()
	for _, lane := range s3.Data {
		for i := range lane {
			lane[i] += 0.1 * rng.NormFloat64()
		}
	}
	nan := jittered(fx.rng, fx.refs[0], 300)
	nan.Data[0][2200] = math.NaN()
	streams = append(streams, stream{ref3, Thresholds{CC: 30, HC: 10, VC: 0.3}, s3},
		stream{fx.refs[0], streams[0].th, nan})

	hits := 0
	for k, st := range streams {
		for round := 0; round < 3; round++ {
			a, err := NewMonitor(st.ref, testDWMParams(), st.th)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewMonitor(st.ref, testDWMParams(), st.th)
			if err != nil {
				t.Fatal(err)
			}
			sp := a.sync.SampleParams()
			n := st.s.Len()
			bridgeAt, restoreAt, resetAt := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			for pos := 0; pos < n; {
				switch {
				case bridgeAt >= 0 && pos >= bridgeAt:
					bridgeAt = -1
					g := 1 + rng.Intn(3*sp.NWin)
					ga, errA := a.BridgeGap(g)
					gb, errB := b.BridgeGap(g)
					sameEncoding(t, "bridge alerts", ga, gb)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("bridge errors differ: %v vs %v", errA, errB)
					}
					continue
				case restoreAt >= 0 && pos >= restoreAt:
					restoreAt = -1
					sa, sb := a.CaptureState(), b.CaptureState()
					sameEncoding(t, "captured state", sa, sb)
					if err := a.RestoreState(sa); err != nil {
						t.Fatal(err)
					}
					if err := b.RestoreState(sb); err != nil {
						t.Fatal(err)
					}
					continue
				case resetAt >= 0 && pos >= resetAt:
					resetAt = -1
					a.Reset()
					b.Reset()
					continue
				}
				size := rng.Intn(2 * sp.NWin)
				switch rng.Intn(4) {
				case 0:
					size = 0
				case 1:
					size = 1
				}
				chunk := st.s.SliceClamped(pos, pos+size)

				i := a.sync.WindowIndex()
				need := i*sp.NHop - a.consumed + sp.NWin - a.buf.Len()
				var next *sigproc.Signal
				kind := rng.Intn(5)
				switch kind {
				case 0, 1:
					next = st.s.SliceClamped(pos, pos+max(need, 0)+rng.Intn(sp.NWin))
					if kind == 1 && next.Len() > 0 {
						next = next.Clone()
						lane := next.Data[rng.Intn(next.Channels())]
						j := rng.Intn(len(lane))
						lane[j] = math.Float64frombits(math.Float64bits(lane[j]) ^ 1<<rng.Intn(64))
					}
				case 2:
					next = st.s.SliceClamped(pos, pos+max(need-1, 0))
				case 3:
					next = nil
				case 4:
					next = noiseLanes(rng, st.ref.Rate, st.ref.Channels()+1, max(need, 1))
				}
				filled := a.aheadIdx == i
				a.lookahead(next)
				fresh := kind == 0 && !filled && a.aheadIdx == i

				ga, errA := a.Push(chunk)
				gb, errB := b.Push(chunk)
				sameEncoding(t, "push alerts", ga, gb)
				if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
					t.Fatalf("stream %d: push errors differ: %v vs %v", k, errA, errB)
				}
				if fresh && errA == nil && a.WindowsProcessed() > i {
					hits++
				}
				pos += size
			}
			fa, errA := a.Flush()
			fb, errB := b.Flush()
			sameEncoding(t, "flush alerts", fa, fb)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("flush errors differ: %v vs %v", errA, errB)
			}
			sameEncoding(t, "alerts", a.Alerts(), b.Alerts())
			sameEncoding(t, "features", a.Features(), b.Features())
			sameEncoding(t, "captured state", a.CaptureState(), b.CaptureState())
			if a.WindowsProcessed() != b.WindowsProcessed() {
				t.Fatalf("stream %d: %d windows processed with lookahead, %d without", k, a.WindowsProcessed(), b.WindowsProcessed())
			}
		}
	}
	if hits < 50 {
		t.Fatalf("only %d windows were committed from a memo computed on their true samples", hits)
	}
	t.Logf("%d windows committed from the memo", hits)
}
