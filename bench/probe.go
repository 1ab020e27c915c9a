package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nsync/internal/ingest"
)

// timedFactory wraps the daemon's SinkFactory in a traced run, so every
// sink it hands out records a span for each Push, Finish and state capture.
// Its sinks answer CaptureState, RestoreState and ModelVersion themselves,
// forwarding to the stateful sink underneath, so the server journals and
// pins models exactly as it does without the wrapper, and capture time is
// seen here.
type timedFactory struct {
	inner ingest.SinkFactory
	tr    *tracer

	mu    sync.Mutex
	sinks map[string]*timedSink // by session id, once released
}

func newTimedFactory(inner ingest.SinkFactory, tr *tracer) *timedFactory {
	return &timedFactory{inner: inner, tr: tr, sinks: map[string]*timedSink{}}
}

// Acquire implements ingest.SinkFactory.
func (f *timedFactory) Acquire(hello *ingest.Frame) (ingest.Sink, error) {
	start := time.Now()
	inner, err := f.inner.Acquire(hello)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	s := &timedSink{inner: inner, log: f.tr.log(hello.SessionID), pushed: make([]uint64, len(hello.Channels))}
	for _, ch := range hello.Channels {
		s.lanes = append(s.lanes, ch.Lanes)
	}
	s.root = s.log.begin("server.session", -1, start)
	s.log.add("ingest.acquire", s.root, start, end)
	return s, nil
}

// Release implements ingest.SinkFactory.
func (f *timedFactory) Release(sink ingest.Sink) {
	s := sink.(*timedSink)
	f.inner.Release(s.inner)
	s.log.end(s.root, time.Now())
	s.log.close()
	f.mu.Lock()
	f.sinks[s.log.key] = s
	f.mu.Unlock()
}

func (f *timedFactory) released() map[string]*timedSink {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sinks
}

// timedSink is one session's sink in a traced run. Only the session worker
// calls it.
type timedSink struct {
	inner ingest.Sink
	log   *spanLog
	root  int
	lanes []int

	// pushed counts the samples pushed so far per channel, and pushes
	// records where each Push started, to find the Push that carries a
	// given frame's first sample.
	pushed []uint64
	pushes []pushRecord
	finish time.Duration

	captures     int
	captureBytes int
}

type pushRecord struct {
	ch    int
	first uint64
	at    time.Time
}

// Push implements ingest.Sink.
func (s *timedSink) Push(ch int, values []float64) error {
	start := time.Now()
	err := s.inner.Push(ch, values)
	s.log.add("core.push", s.root, start, time.Now())
	if ch >= 0 && ch < len(s.lanes) {
		s.pushes = append(s.pushes, pushRecord{ch: ch, first: s.pushed[ch], at: start})
		s.pushed[ch] += uint64(len(values) / s.lanes[ch])
	}
	return err
}

// Finish implements ingest.Sink.
func (s *timedSink) Finish(reason string) (*ingest.Verdict, error) {
	start := time.Now()
	v, err := s.inner.Finish(reason)
	end := time.Now()
	s.log.add("core.finish", s.root, start, end)
	s.finish = end.Sub(start)
	return v, err
}

// innermost walks the wrapper chain under the sink down to the sink that
// holds the detector, as the server does.
func (s *timedSink) innermost() ingest.Sink {
	in := s.inner
	for {
		u, ok := in.(interface{ Unwrap() ingest.Sink })
		if !ok {
			return in
		}
		in = u.Unwrap()
	}
}

func (s *timedSink) stateful() (ingest.StatefulSink, bool) {
	ss, ok := s.innermost().(ingest.StatefulSink)
	return ss, ok
}

// CaptureState implements ingest.StatefulSink. A sink with no state
// captures nothing, which the journal treats as it would a plain sink.
func (s *timedSink) CaptureState() ([]byte, error) {
	ss, ok := s.stateful()
	if !ok {
		return nil, nil
	}
	start := time.Now()
	b, err := ss.CaptureState()
	s.log.add("core.capture", s.root, start, time.Now())
	s.captures++
	s.captureBytes += len(b)
	return b, err
}

// RestoreState implements ingest.StatefulSink.
func (s *timedSink) RestoreState(state []byte) error {
	ss, ok := s.stateful()
	if !ok {
		return fmt.Errorf("bench: sink cannot restore state")
	}
	return ss.RestoreState(state)
}

// ModelVersion reports the model the session is pinned to, as the pool's
// sinks do.
func (s *timedSink) ModelVersion() string {
	if mv, ok := s.innermost().(interface{ ModelVersion() string }); ok {
		return mv.ModelVersion()
	}
	return ""
}

// pushStart is when the Push carrying sample seq of channel ch started.
func (s *timedSink) pushStart(ch int, seq uint64) (time.Time, bool) {
	for i := len(s.pushes) - 1; i >= 0; i-- {
		p := s.pushes[i]
		if p.ch == ch && p.first <= seq {
			return p.at, true
		}
	}
	return time.Time{}, false
}

// countingListener counts the server's read calls and bytes read.
type countingListener struct {
	net.Listener
	reads, bytes atomic.Int64
}

// Accept implements net.Listener.
func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.reads.Add(1)
	c.l.bytes.Add(int64(n))
	return n, err
}
