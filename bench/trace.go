package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls into the program.
type span struct {
	Name string `json:"name"`
	// Key is the session or table cell the span belongs to.
	Key string `json:"key"`
	// Parent indexes the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// Start and End are offsets from the start of the trace.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of a traced run in memory. Each session or cell
// records into its own spanLog, owned by one goroutine, and hands it over
// when it ends, so recording a span takes no lock.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanLog is one key's spans. A nil *spanLog records nothing, which is how
// untraced runs use the same code.
type spanLog struct {
	tr    *tracer
	key   string
	spans []span
}

func (tr *tracer) log(key string) *spanLog {
	if tr == nil {
		return nil
	}
	return &spanLog{tr: tr, key: key}
}

// add records a finished span under parent (an index add returned, or -1)
// and returns its index.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Key: l.key, Parent: parent,
		Start: start.Sub(l.tr.t0), End: end.Sub(l.tr.t0)})
	return len(l.spans) - 1
}

// begin opens a span whose end is set later with end.
func (l *spanLog) begin(name string, parent int, start time.Time) int {
	return l.add(name, parent, start, start)
}

func (l *spanLog) end(i int, at time.Time) {
	if l == nil {
		return
	}
	l.spans[i].End = at.Sub(l.tr.t0)
}

// close hands the log's spans to the tracer, rebasing parent indexes.
func (l *spanLog) close() {
	if l == nil {
		return
	}
	l.tr.mu.Lock()
	defer l.tr.mu.Unlock()
	base := len(l.tr.spans)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		l.tr.spans = append(l.tr.spans, s)
	}
	l.spans = nil
}

// all returns every closed span.
func (tr *tracer) all() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums self time by name: each span's duration minus the part of
// it that its child spans cover. Overlapping children count once.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[i])
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := parent.Start, parent.Start
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - cur
			cur = start
		}
		curEnd = max(curEnd, end)
	}
	return total + curEnd - cur
}

// percentile is the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between the closest ranks; 0 for no samples. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) with its default exclusive method, which
// is how the benchmark's run-to-run spread is judged.
func quartiles(xs []float64) ([3]float64, error) {
	var q [3]float64
	n := len(xs)
	if n < 2 {
		return q, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, nil
}
