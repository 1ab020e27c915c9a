package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{2, 1}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The want values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2.5, 3}, [3]float64{1.75, 3, 4.5}},
	} {
		got, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value did not fail")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "cell", Parent: -1, Start: ms(0), End: ms(100)},
		// Two overlapping children cover 10..50 once, a third 70..80, and
		// one runs past the parent's end, which counts only up to 100.
		{Name: "sync", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "sync", Parent: 0, Start: ms(30), End: ms(50)},
		{Name: "features", Parent: 0, Start: ms(70), End: ms(80)},
		{Name: "occ", Parent: 0, Start: ms(95), End: ms(120)},
		// A grandchild takes its time out of its parent only.
		{Name: "fft", Parent: 3, Start: ms(72), End: ms(76)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"cell": ms(100 - 40 - 10 - 5), "sync": ms(30 + 20), "features": ms(6), "occ": ms(25), "fft": ms(4),
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}

func TestSpanLogRebasesParents(t *testing.T) {
	tr := newTracer()
	a, b := tr.log("a"), tr.log("b")
	now := time.Now()
	ra := a.begin("root", -1, now)
	a.add("child", ra, now, now.Add(time.Millisecond))
	rb := b.begin("root", -1, now)
	b.add("child", rb, now, now.Add(time.Millisecond))
	a.close()
	b.close()
	spans := tr.all()
	if len(spans) != 4 || spans[1].Parent != 0 || spans[3].Parent != 2 || spans[3].Key != "b" {
		t.Fatalf("merged spans %+v", spans)
	}
	var none *spanLog
	if none.add("x", -1, now, now) != -1 {
		t.Error("a nil log recorded a span")
	}
}

// fakeClock lets the open-loop pacer run without sleeping.
type fakeClock struct{ now time.Time }

func (c *fakeClock) pacer() pacer {
	return pacer{now: func() time.Time { return c.now }, sleep: func(d time.Duration) { c.now = c.now.Add(d) }}
}

func TestPacerLateness(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	p := c.pacer()
	// Early: the pacer sleeps to the due time and the frame is on time.
	due := c.now.Add(5 * time.Millisecond)
	if lag := p.wait(due); lag != 0 || !c.now.Equal(due) {
		t.Fatalf("early frame: lag %v, clock %v, want 0 at %v", lag, c.now, due)
	}
	// Behind schedule: no sleep, and the whole delay is lateness.
	c.now = c.now.Add(20 * time.Millisecond)
	if lag := p.wait(due.Add(2 * time.Millisecond)); lag != 18*time.Millisecond {
		t.Fatalf("late frame: lag %v, want 18ms", lag)
	}
	// A sleep that overshoots counts as lateness too.
	over := pacer{now: p.now, sleep: func(d time.Duration) { c.now = c.now.Add(d + time.Millisecond) }}
	if lag := over.wait(c.now.Add(3 * time.Millisecond)); lag != time.Millisecond {
		t.Fatalf("overshooting sleep: lag %v, want 1ms", lag)
	}
}

func TestMachineSpeed(t *testing.T) {
	t0 := time.Unix(100, 0)
	p := &machineProbe{}
	for i, k := range []time.Duration{referenceKernel, 2 * referenceKernel, 2 * referenceKernel, referenceKernel / 2} {
		p.samples = append(p.samples, probeSample{at: t0.Add(time.Duration(i) * time.Second), kernel: k})
	}
	// Samples 0..2 fall in the interval; their median kernel took twice the
	// reference, so the machine ran at half speed.
	if got := p.speed(t0, t0.Add(2*time.Second)); got != 0.5 {
		t.Errorf("speed over the first three samples = %v, want 0.5", got)
	}
	// An interval with no sample uses the one nearest its end.
	if got := p.speed(t0.Add(3500*time.Millisecond), t0.Add(3600*time.Millisecond)); got != 2 {
		t.Errorf("speed with no sample in the interval = %v, want 2", got)
	}
	if got := (&machineProbe{}).speed(t0, t0); got != 1 {
		t.Errorf("speed with no samples = %v, want 1", got)
	}
}
