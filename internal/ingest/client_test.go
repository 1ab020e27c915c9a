package ingest

import (
	"bufio"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nsync/internal/sigproc"
)

// TestReplayScheduledReconnectsSpendNoDialBudget: reconnects that
// ReconnectAfter schedules are not failures, so a stream with many more of
// them than MaxDials still reaches its verdict.
func TestReplayScheduledReconnectsSpendNoDialBudget(t *testing.T) {
	f := &countFactory{}
	addr, _ := startServer(t, Config{Factory: f, ReadTimeout: 10 * time.Second, Retention: time.Minute})
	sig := noiseML(rand.New(rand.NewSource(3)), 100, 1, 600)
	stats := &ReplayStats{}
	const maxDials = 4
	v, err := Replay(addr, oneChanHello("scheduled", 1), []*sigproc.Signal{sig}, ReplayOptions{
		FrameSamples: 20, ReconnectAfter: 2, MaxDials: maxDials, Stats: stats,
	})
	if err != nil {
		t.Fatalf("replay with %d scheduled reconnects: %v", 600/20/2-1, err)
	}
	if v.Reason != "finished" {
		t.Errorf("verdict reason %q, want finished", v.Reason)
	}
	if stats.Dials <= 2*maxDials {
		t.Errorf("Dials = %d, want well over MaxDials %d", stats.Dials, maxDials)
	}
	f.mu.Lock()
	got := f.sinks[0].samples[0]
	f.mu.Unlock()
	if got != 600 {
		t.Errorf("sink got %d samples across the reconnects, want 600", got)
	}
}

// TestReplayFailuresSpendDialBudget: attempts that failures cause still
// count. A closed port is refused exactly MaxDials times, and a server that
// accepts every connection but breaks it after the HelloAck, committing
// nothing, gets exactly MaxDials connections: a scheduled reconnect that
// finds no progress is not refunded.
func TestReplayFailuresSpendDialBudget(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := l.Addr().String()
	l.Close()
	sig := noiseML(rand.New(rand.NewSource(4)), 100, 1, 100)
	opt := ReplayOptions{
		FrameSamples: 20, ReconnectAfter: 1, MaxDials: 4,
		DialBackoff: time.Millisecond, DialBackoffMax: 2 * time.Millisecond,
	}
	stats := &ReplayStats{}
	opt.Stats = stats
	if _, err := Replay(closed, oneChanHello("refused", 1), []*sigproc.Signal{sig}, opt); err == nil {
		t.Fatal("replay against a closed port succeeded")
	}
	if stats.Dials != opt.MaxDials {
		t.Errorf("closed port: %d dial attempts, want exactly MaxDials %d", stats.Dials, opt.MaxDials)
	}

	breaker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer breaker.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := breaker.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			if _, err := ReadFrame(bufio.NewReader(conn)); err == nil {
				WriteFrame(conn, &Frame{Type: FrameHelloAck, Committed: []uint64{0}}) //nolint:errcheck // the test breaks the connection anyway
			}
			conn.Close()
		}
	}()
	opt.Stats = &ReplayStats{}
	_, err = Replay(breaker.Addr().String(), oneChanHello("broken", 1), []*sigproc.Signal{sig}, opt)
	if err == nil || !strings.Contains(err.Error(), "dial budget exhausted after 4 attempts") {
		t.Fatalf("server breaking every stream: got %v, want the dial budget exhausted after 4 attempts", err)
	}
	if n := accepted.Load(); n != int64(opt.MaxDials) {
		t.Errorf("%d connections accepted, want exactly MaxDials %d", n, opt.MaxDials)
	}
}
