package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleFrames() []*Frame {
	return []*Frame{
		{Type: FrameHello, SessionID: "print-42", Priority: 7, Channels: []ChannelSpec{
			{Name: "ACC", Lanes: 6, Rate: 400},
			{Name: "MAG", Lanes: 3, Rate: 10},
			{Name: "AUD", Lanes: 2, Rate: 4800},
		}},
		{Type: FrameHello, SessionID: "fleet-17", Priority: 3,
			Channels: []ChannelSpec{{Name: "ACC", Lanes: 6, Rate: 400}},
			Tenant:   "plant-berlin", Model: "a1b2c3d4e5f6"},
		{Type: FrameHelloAck, Committed: []uint64{0, 1200, 1 << 40}},
		{Type: FrameHelloAck},
		{Type: FrameData, Channel: 2, Seq: 12345, Values: []float64{1.5, -2.25, 0, 3e300}},
		{Type: FrameData, Channel: 0, Seq: 0, Values: []float64{}},
		{Type: FrameEOS, Channel: 1, Seq: 99999},
		{Type: FrameFinish},
		{Type: FrameVerdict, Verdict: &Verdict{
			Intrusion: true, Reason: "finished",
			Alerts:   []VerdictAlert{{Time: 12.5, Votes: 2, Healthy: 3, Needed: 2}},
			Channels: []VerdictChannel{{Name: "ACC", Quarantined: true, Health: "flat"}, {Name: "MAG", Voting: true, Health: "ok"}},
		}},
		{Type: FrameVerdict, Verdict: &Verdict{Reason: "drained"}},
		{Type: FrameError, Message: "server overloaded; session shed"},
		{Type: FrameHello, SessionID: "resume-9", Priority: 1,
			Channels: []ChannelSpec{{Name: "ACC", Lanes: 6, Rate: 400}},
			Flags:    HelloFlagExpectResume},
		{Type: FrameRedirect, Addr: "10.0.0.7:7071", Peer: 2},
		{Type: FrameHandoff, SessionID: "fleet-0007", Priority: 9,
			Channels: []ChannelSpec{{Name: "ACC", Lanes: 6, Rate: 400}, {Name: "AUD", Lanes: 2, Rate: 4800}},
			Tenant:   "plant-berlin", Model: "a1b2c3d4e5f6",
			Committed: []uint64{400, 9600}, Blob: []byte{1, 2, 3, 4}},
		{Type: FrameHandoff, SessionID: "stateless", Priority: 0,
			Channels:  []ChannelSpec{{Name: "MAG", Lanes: 3, Rate: 10}},
			Committed: []uint64{0}},
		{Type: FrameHandoffAck, SessionID: "fleet-0007"},
		{Type: FrameHandoffAck, SessionID: "fleet-0008", Message: "peer is draining"},
		{Type: FrameModelFetch, Model: "a1b2c3d4e5f6"},
		{Type: FrameModelData, Model: "a1b2c3d4e5f6", Seq: 1 << 19, Blob: bytes.Repeat([]byte{0xAB}, 32)},
		{Type: FrameModelData, Model: "a1b2c3d4e5f6", Seq: 0, Last: true},
		{Type: FramePing, Peer: 1, Usage: []TenantUsage{{Tenant: "plant-0", Sessions: 3}, {Tenant: "plant-1", Sessions: 1}}},
		{Type: FramePong, Peer: 0},
		{Type: FramePing, Peer: 2, Flags: PingFlagDraining},
		{Type: FramePong, Peer: 1, Usage: []TenantUsage{{Tenant: "plant-2", Sessions: 7}}, Flags: PingFlagDraining},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.Type, err)
		}
		got, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%v: decode: %v", f.Type, err)
		}
		// Empty slices decode as their canonical form; normalize before
		// comparing.
		norm := *f
		if len(norm.Values) == 0 {
			norm.Values = got.Values
		}
		if !reflect.DeepEqual(got, &norm) {
			t.Errorf("%v: round trip:\n got %+v\nwant %+v", f.Type, got, &norm)
		}
	}
}

// TestHelloBackwardCompatible decodes a pre-fleet Hello — the payload ends
// at the channel list, with no tenant or model fields — and a tenant-only
// Hello. Both layouts must keep decoding after the fleet extension.
func TestHelloBackwardCompatible(t *testing.T) {
	legacy := mustAppendRaw(t, func(w *frameWriter) {
		w.u8(Version)
		w.u8(uint8(FrameHello))
		w.str8("old-client")
		w.u8(5) // priority
		w.u8(1) // one channel
		w.str8("ACC")
		w.u8(6)
		w.f64(400)
	})
	f, err := ReadFrame(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy hello: %v", err)
	}
	if f.SessionID != "old-client" || f.Tenant != "" || f.Model != "" {
		t.Fatalf("legacy hello decoded as %+v", f)
	}

	tenantOnly := mustAppendRaw(t, func(w *frameWriter) {
		w.u8(Version)
		w.u8(uint8(FrameHello))
		w.str8("mid-client")
		w.u8(5)
		w.u8(1)
		w.str8("ACC")
		w.u8(6)
		w.f64(400)
		w.str8("plant-7") // tenant but no model
	})
	f, err = ReadFrame(bytes.NewReader(tenantOnly))
	if err != nil {
		t.Fatalf("tenant-only hello: %v", err)
	}
	if f.Tenant != "plant-7" || f.Model != "" {
		t.Fatalf("tenant-only hello decoded as %+v", f)
	}
}

// TestRedirectBackwardCompatible decodes a Redirect whose payload ends at
// the address — no trailing peer-index field. Like Hello's tenant/model
// extension, Peer is trailing-optional so a minimal redirect stays
// decodable by future versions.
func TestRedirectBackwardCompatible(t *testing.T) {
	minimal := mustAppendRaw(t, func(w *frameWriter) {
		w.u8(Version)
		w.u8(uint8(FrameRedirect))
		w.str16("10.0.0.9:7071")
	})
	f, err := ReadFrame(bytes.NewReader(minimal))
	if err != nil {
		t.Fatalf("minimal redirect: %v", err)
	}
	if f.Addr != "10.0.0.9:7071" || f.Peer != 0 {
		t.Fatalf("minimal redirect decoded as %+v", f)
	}
}

// TestHelloFlagsBackwardCompatible checks both directions of the Flags
// extension: a Hello without the trailing flags byte decodes with Flags=0,
// and a fresh Hello (Flags=0) encodes byte-identical to the pre-cluster
// layout so legacy servers keep accepting it.
func TestHelloFlagsBackwardCompatible(t *testing.T) {
	noFlags := mustAppendRaw(t, func(w *frameWriter) {
		w.u8(Version)
		w.u8(uint8(FrameHello))
		w.str8("full-client")
		w.u8(5)
		w.u8(1)
		w.str8("ACC")
		w.u8(6)
		w.f64(400)
		w.str8("plant-7")
		w.str8("a1b2c3d4e5f6")
	})
	f, err := ReadFrame(bytes.NewReader(noFlags))
	if err != nil {
		t.Fatalf("flagless hello: %v", err)
	}
	if f.Flags != 0 || f.Tenant != "plant-7" || f.Model != "a1b2c3d4e5f6" {
		t.Fatalf("flagless hello decoded as %+v", f)
	}

	fresh := &Frame{Type: FrameHello, SessionID: "full-client", Priority: 5,
		Channels: []ChannelSpec{{Name: "ACC", Lanes: 6, Rate: 400}},
		Tenant:   "plant-7", Model: "a1b2c3d4e5f6"}
	enc, err := AppendFrame(nil, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, noFlags) {
		t.Fatalf("fresh hello encoding diverged from pre-cluster layout:\n got %x\nwant %x", enc, noFlags)
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := sampleFrames()
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i := range frames {
		if _, err := ReadFrame(r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream: got %v, want io.EOF", err)
	}
}

func TestFrameMalformed(t *testing.T) {
	valid, err := AppendFrame(nil, &Frame{Type: FrameData, Channel: 1, Seq: 10, Values: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bad version":       {0, 0, 0, 2, 99, byte(FrameFinish)},
		"unknown type":      {0, 0, 0, 2, Version, 200},
		"short payload len": {0, 0, 0, 1, Version},
		"hello no channels": mustAppendRaw(t, func(w *frameWriter) {
			w.u8(Version)
			w.u8(uint8(FrameHello))
			w.str8("id")
			w.u8(0) // priority
			w.u8(0) // zero channels
		}),
		"hello zero lanes": mustAppendRaw(t, func(w *frameWriter) {
			w.u8(Version)
			w.u8(uint8(FrameHello))
			w.str8("id")
			w.u8(0)
			w.u8(1)
			w.str8("ACC")
			w.u8(0) // zero lanes
			w.f64(100)
		}),
		"hello bad rate": mustAppendRaw(t, func(w *frameWriter) {
			w.u8(Version)
			w.u8(uint8(FrameHello))
			w.str8("id")
			w.u8(0)
			w.u8(1)
			w.str8("ACC")
			w.u8(1)
			w.f64(-5)
		}),
		"truncated data values": valid[:len(valid)-4],
		"trailing bytes":        append(append([]byte{}, valid...), 0xFF),
	}
	// Fix up the length prefixes of the hand-built cases.
	for name, b := range cases {
		switch name {
		case "truncated data values":
			nb := append([]byte{}, b...)
			binary.BigEndian.PutUint32(nb, uint32(len(nb)-4))
			cases[name] = nb
		case "trailing bytes":
			nb := append([]byte{}, b...)
			binary.BigEndian.PutUint32(nb, uint32(len(nb)-4))
			cases[name] = nb
		}
	}
	for name, b := range cases {
		_, err := ReadFrame(bytes.NewReader(b))
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

// mustAppendRaw hand-builds a length-prefixed frame from raw payload writes.
func mustAppendRaw(t *testing.T, build func(w *frameWriter)) []byte {
	t.Helper()
	w := &frameWriter{}
	build(w)
	out := binary.BigEndian.AppendUint32(nil, uint32(len(w.buf)))
	return append(out, w.buf...)
}

func TestFrameOversizedLengthRejected(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFramePayload+1)
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized length: got %v, want ErrMalformed", err)
	}
}

func TestFrameTornStream(t *testing.T) {
	buf, err := AppendFrame(nil, &Frame{Type: FrameData, Channel: 0, Seq: 5, Values: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-payload: a torn stream is an I/O problem, not a protocol one.
	if _, err := ReadFrame(bytes.NewReader(buf[:len(buf)/2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn payload: got %v, want io.ErrUnexpectedEOF", err)
	}
	if errors.Is(err, ErrMalformed) {
		t.Error("torn payload must not classify as malformed")
	}
	// Cut mid-header.
	if _, err := ReadFrame(bytes.NewReader(buf[:2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn header: got %v, want io.ErrUnexpectedEOF", err)
	}
}

func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[4:]) // seed with the payload, sans length prefix
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, byte(FrameData), 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeFrame(payload)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode back to itself.
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v\nframe: %+v", err, fr)
		}
		fr2, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		// Compare via a second encoding rather than reflect.DeepEqual: the
		// fuzzer finds float payloads containing NaN, whose bit pattern the
		// codec preserves but which never compare equal as values.
		buf2, err := AppendFrame(nil, fr2)
		if err != nil {
			t.Fatalf("re-decoded frame failed to encode: %v", err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x\nframe: %+v", buf2, buf, fr)
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams through ReadFrame on a
// bufio.Reader, as the server and the client read them. Every frame read
// must round-trip through AppendFrame and ReadFrame, and must not change
// while later frames are read (it may not alias a reused read buffer). A
// failure keeps its class: io.EOF only at a frame boundary,
// io.ErrUnexpectedEOF inside a frame, ErrMalformed for a bad length prefix
// or for a payload DecodeFrame rejects.
func FuzzReadFrame(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join(goldenDir, "frames.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 1, Version})
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFramePayload+1))
	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		var frames []*Frame
		var encoded [][]byte
		for rest := stream; ; {
			fr, err := ReadFrame(br)
			if err != nil {
				checkReadError(t, rest, err)
				break
			}
			n := 4 + int(binary.BigEndian.Uint32(rest))
			rest = rest[n:]
			enc, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("frame %d failed to re-encode: %v\nframe: %+v", len(frames), err, fr)
			}
			again, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil {
				t.Fatalf("frame %d failed to read back: %v", len(frames), err)
			}
			// Compared through a second encoding: NaN values never compare
			// equal, but the codec keeps their bits.
			if enc2, err := AppendFrame(nil, again); err != nil || !bytes.Equal(enc2, enc) {
				t.Fatalf("frame %d read back as %x (%v), want %x", len(frames), enc2, err, enc)
			}
			frames = append(frames, fr)
			encoded = append(encoded, enc)
		}
		for i, fr := range frames {
			if enc, _ := AppendFrame(nil, fr); !bytes.Equal(enc, encoded[i]) {
				t.Fatalf("frame %d changed while later frames were read: %x, was %x", i, enc, encoded[i])
			}
		}
	})
}

// checkReadError checks that ReadFrame's failure on the unread bytes rest
// has the class rest calls for.
func checkReadError(t *testing.T, rest []byte, err error) {
	t.Helper()
	if len(rest) == 0 {
		if err != io.EOF {
			t.Fatalf("at a frame boundary: %v, want io.EOF", err)
		}
		return
	}
	want := io.ErrUnexpectedEOF
	if len(rest) >= 4 {
		n := binary.BigEndian.Uint32(rest)
		switch {
		case n < 2 || n > MaxFramePayload:
			want = ErrMalformed
		case uint64(len(rest)-4) >= uint64(n):
			if _, derr := DecodeFrame(rest[4 : 4+n]); derr == nil {
				t.Fatalf("ReadFrame failed (%v) on a payload DecodeFrame accepts", err)
			}
			want = ErrMalformed
		}
	}
	if !errors.Is(err, want) {
		t.Fatalf("%d unread bytes %x: %v, want %v", len(rest), rest[:min(len(rest), 16)], err, want)
	}
}
