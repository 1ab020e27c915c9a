package ingest

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"nsync/internal/scratch"
	"nsync/internal/sigproc"
)

// TestMonitorSinkCycleAllocs pools one sink across sessions streamed as
// 4-sample frames, channels interleaved frame by frame as a session worker
// delivers them. Every session must reach the first session's verdict, and
// once the sink is warm a whole Acquire/Push/Finish/Release cycle may
// allocate only the verdict Finish returns: de-interleaving a frame, the
// chunk list, the health windows and the monitors' buffers all reuse sink
// scratch.
func TestMonitorSinkCycleAllocs(t *testing.T) {
	fx := fixture(t)
	pool := fx.pool(t, 1)
	rng := rand.New(rand.NewSource(31))
	type push struct {
		ch     int
		values []float64
	}
	var pushes []push
	runs := []*sigproc.Signal{perturbed(rng, fx.refs[0]), perturbed(rng, fx.refs[1])}
	for pos := 0; pos < runs[0].Len(); pos += 4 {
		for ch, r := range runs {
			end := min(pos+4, r.Len())
			var values []float64
			for i := pos; i < end; i++ {
				for l := range r.Data {
					values = append(values, r.Data[l][i])
				}
			}
			pushes = append(pushes, push{ch, values})
		}
	}
	hello := &Frame{Channels: fx.specs}
	cycle := func() *Verdict {
		s, err := pool.Acquire(hello)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pushes {
			if err := s.Push(p.ch, p.values); err != nil {
				t.Fatal(err)
			}
		}
		v, err := s.Finish("eos")
		if err != nil {
			t.Fatal(err)
		}
		pool.Release(s)
		return v
	}
	first := cycle()
	if got := cycle(); !reflect.DeepEqual(got, first) {
		t.Fatalf("recycled sink verdict %+v, first session %+v", got, first)
	}

	if scratch.RaceEnabled {
		return // sync.Pool drops items at random under -race
	}
	allocs := testing.AllocsPerRun(3, func() { cycle() })
	// Finish builds the verdict: the Verdict itself, its channel list (two
	// appends) and the monitor's channel-state snapshot it reads from.
	// Anything more is per-push or per-session allocation on the fused path
	// — this stream makes over a thousand pushes.
	if allocs > 4 {
		t.Errorf("a warm Acquire/Push/Finish/Release cycle allocates %.1f objects over %d pushes, want <= 4 (the verdict)", allocs, len(pushes))
	}
}

// discardConn is a connection whose writes vanish.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// loopReader replays b forever.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestWirePathAllocs pins what a Data frame's trip through the daemon
// allocates: a warm Client encodes into its reused buffer, AppendFrame
// encodes in place behind dst's prefix, an enqueue into a queue with room
// arms no timer, and ReadFrame allocates only the decoded frame and its
// values.
func TestWirePathAllocs(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	f := &Frame{Type: FrameData, Channel: 1, Seq: 4096, Values: make([]float64, 24)}
	for i := range f.Values {
		f.Values[i] = float64(i) - 11.5
	}
	want, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}

	c := &Client{conn: discardConn{}}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.SendData(f.Channel, f.Seq, f.Values); err != nil {
			t.Fatal(err)
		}
		if err := c.SendEOS(f.Channel, f.Seq); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SendData+SendEOS allocates %.1f objects, want 0", n)
	}

	dst := append(make([]byte, 0, 64+len(want)), "prefix"...)
	var out []byte
	if n := testing.AllocsPerRun(100, func() { out, _ = AppendFrame(dst, f) }); n != 0 {
		t.Errorf("AppendFrame into a dst with room allocates %.1f objects, want 0", n)
	}
	if string(out[:len(dst)]) != "prefix" || !bytes.Equal(out[len(dst):], want) {
		t.Errorf("AppendFrame into a dst with room: %x, want prefix then %x", out, want)
	}

	srv, err := NewServer(Config{Factory: &countFactory{}})
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(srv, &Frame{SessionID: "allocs", Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 100}}}, &countSink{samples: []int{0}}, &tenant{})
	q := queued{f: f}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.enqueue(q, time.Second); err != nil {
			t.Fatal(err)
		}
		s.discardQueue()
	}); n != 0 {
		t.Errorf("enqueue into a queue with room allocates %.1f objects, want 0", n)
	}

	br := bufio.NewReader(&loopReader{b: want})
	var got *Frame
	if n := testing.AllocsPerRun(100, func() { got, _ = ReadFrame(br) }); n > 2 {
		t.Errorf("ReadFrame of a Data frame allocates %.1f objects, want <= 2 (the frame and its values)", n)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("ReadFrame: %+v, want %+v", got, f)
	}
}
