package ingest

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"nsync/internal/resilience"
	"nsync/internal/sigproc"
)

// ServerError is a FrameError received from the server: the server is
// healthy and reachable but refused or terminated the session (shed,
// evicted, malformed input). Reconnecting will not help, so it is never
// classified as transient.
type ServerError struct{ Msg string }

// Error implements error.
func (e *ServerError) Error() string { return "ingest: server: " + e.Msg }

// ErrNoState matches (via errors.Is) a cluster peer's typed rejection of a
// resume Hello when nothing is retained for the session anywhere — the one
// ServerError a fleet-aware client recovers from, by downgrading to a fresh
// Hello (degraded: the stream restarts, but the client never wedges).
var ErrNoState = errors.New("ingest: no retained state for session")

// noStateMsg is the wire message admit sends for that rejection; its
// "no retained state" substring is the match key ServerError.Is uses.
const noStateMsg = "no retained state for session; retry with a fresh hello"

// Is lets errors.Is(err, ErrNoState) see the typed rejection through the
// wire round-trip.
func (e *ServerError) Is(target error) bool {
	return target == ErrNoState && strings.Contains(e.Msg, "no retained state")
}

// isMigratedReject recognizes the "session migrated; reconnect" rejection a
// draining peer sends when it hands a live session to its successor. It can
// surface at dial time (the redial beat the local teardown) or mid-finish
// (the drain beat the verdict); both resolve by redialing, which the
// redirect machinery steers to the successor.
func isMigratedReject(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && strings.Contains(se.Msg, "migrated")
}

// endedError is a Verdict frame received in place of a HelloAck: a session
// with this id already ended with that verdict. On a resume redial it is
// this stream's (the reply to its Finish, or its drain, was lost) and
// Replay returns it; on a fresh Hello it is an earlier print's, whose
// worker is still exiting, and Replay retries.
type endedError struct{ v *Verdict }

func (e *endedError) Error() string { return "ingest: session already ended with a verdict" }

// RedirectError is a Redirect frame received in place of a HelloAck: the
// dialed peer is healthy but another peer owns the session. Replay follows
// it; bare Dial callers see it as a typed error naming the owner.
type RedirectError struct {
	Addr string
	Peer int
}

// Error implements error.
func (e *RedirectError) Error() string {
	return fmt.Sprintf("ingest: session owned by peer %d at %s", e.Peer, e.Addr)
}

// Hello describes the session a client wants to open.
type Hello struct {
	SessionID string
	// Priority orders sessions for load shedding: lower sheds first.
	Priority int
	Channels []ChannelSpec
	// Tenant is the fleet tenant the session belongs to; the server enforces
	// admission quotas per tenant. Empty means the anonymous tenant.
	Tenant string
	// Model optionally selects a trained model by content address when the
	// server runs a shared model pool. Empty means the server's default.
	Model string
	// ExpectResume marks a reconnect Hello: the client believes some peer
	// retains this session's state. A cluster peer with nothing retained
	// answers the typed ErrNoState rejection instead of silently admitting a
	// mid-print stream into a brand-new detector. Replay manages this flag
	// itself; it rides a trailing-optional Hello byte, so servers predating
	// it ignore the flag and fresh Hellos stay byte-identical on the wire.
	ExpectResume bool
}

// Client is one connection's worth of framed-protocol state. Reconnecting
// means Dial-ing a new Client with the same session id and resuming from
// the committed counts the HelloAck reports. One goroutine uses a Client at
// a time, as Replay does: SendData, SendEOS and Finish encode into one
// reused buffer.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte // the reused encode buffer
	// Committed is the server's per-channel committed sample count at
	// handshake time — the resume point.
	Committed []uint64
}

// Dial connects, handshakes, and returns a client ready to send data
// frames. On resume, Committed tells the caller where to pick up each
// channel.
func Dial(addr string, h Hello, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn)}
	hello := &Frame{
		Type: FrameHello, SessionID: h.SessionID, Priority: h.Priority,
		Channels: h.Channels, Tenant: h.Tenant, Model: h.Model,
	}
	if h.ExpectResume {
		hello.Flags |= HelloFlagExpectResume
	}
	conn.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck // net.Conn deadlines
	if err := WriteFrame(conn, hello); err != nil {
		conn.Close() //nolint:errcheck // already failing
		return nil, err
	}
	f, err := ReadFrame(c.br)
	if err != nil {
		conn.Close() //nolint:errcheck // already failing
		return nil, err
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck // net.Conn deadlines
	switch f.Type {
	case FrameHelloAck:
		c.Committed = f.Committed
		return c, nil
	case FrameRedirect:
		conn.Close() //nolint:errcheck // already failing
		return nil, &RedirectError{Addr: f.Addr, Peer: f.Peer}
	case FrameVerdict:
		conn.Close() //nolint:errcheck // the session is over
		return nil, &endedError{v: f.Verdict}
	case FrameError:
		conn.Close() //nolint:errcheck // already failing
		return nil, &ServerError{Msg: f.Message}
	default:
		conn.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("%w: %v reply to hello", ErrMalformed, f.Type)
	}
}

// send encodes f into the client's buffer and writes it as one frame.
func (c *Client) send(f *Frame) error {
	buf, err := AppendFrame(c.buf[:0], f)
	if err != nil {
		return err
	}
	c.buf = buf
	_, err = c.conn.Write(buf)
	return err
}

// SendData sends one data frame: lane-interleaved values for channel ch
// whose first sample has stream index seq.
func (c *Client) SendData(ch int, seq uint64, values []float64) error {
	return c.send(&Frame{Type: FrameData, Channel: ch, Seq: seq, Values: values})
}

// SendEOS declares channel ch's total sample count.
func (c *Client) SendEOS(ch int, total uint64) error {
	return c.send(&Frame{Type: FrameEOS, Channel: ch, Seq: total})
}

// Finish asks for the final verdict and waits for it.
func (c *Client) Finish(timeout time.Duration) (*Verdict, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if err := c.send(&Frame{Type: FrameFinish}); err != nil {
		return nil, err
	}
	c.conn.SetReadDeadline(time.Now().Add(timeout)) //nolint:errcheck // net.Conn deadlines
	f, err := ReadFrame(c.br)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case FrameVerdict:
		return f.Verdict, nil
	case FrameError:
		return nil, &ServerError{Msg: f.Message}
	default:
		return nil, fmt.Errorf("%w: %v reply to finish", ErrMalformed, f.Type)
	}
}

// AwaitVerdict blocks until the server sends a terminal frame — the drain
// verdict on server shutdown, or an error. Use it instead of Finish when
// the server, not the client, decides when the session ends.
func (c *Client) AwaitVerdict(timeout time.Duration) (*Verdict, error) {
	if timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(timeout)) //nolint:errcheck // net.Conn deadlines
	}
	for {
		f, err := ReadFrame(c.br)
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case FrameVerdict:
			return f.Verdict, nil
		case FrameError:
			return nil, &ServerError{Msg: f.Message}
		}
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ---- Replay ----

// ReplayOptions injects transport defects into a replayed stream. The
// defects are seeded and deterministic: the same options replay the same
// schedule, which is what lets tests assert verdict equivalence.
type ReplayOptions struct {
	// FrameSamples is how many samples each data frame carries (default 100).
	FrameSamples int
	// Seed drives the defect schedule.
	Seed int64
	// ShuffleWindow permutes the send order within consecutive windows of
	// this many frames (0 or 1 = in order). Lossless: everything still
	// arrives, just out of order, exercising the resequencer.
	ShuffleWindow int
	// DupProb is the probability a frame is sent twice. Lossless.
	DupProb float64
	// DropProb is the probability a frame is never sent. Lossy: the server
	// fills the gap and detection sees synthetic stuck-at samples.
	DropProb float64
	// ReconnectAfter forces a connection drop and resume after every this
	// many sent frames (0 = never).
	ReconnectAfter int
	// CutChannels lists channel indexes whose data stops at half their
	// length while EOS still declares the full extent — a sensor that died
	// mid-print. The server fills the missing half and health quarantine
	// retires the channel.
	CutChannels []int
	// MaxDials bounds the connection attempts that failures cause, first
	// dial included (default 8): refused or broken dials, transport errors
	// mid-stream, and redials in the finish phase. A reconnect that
	// ReconnectAfter schedules is not a failure: its attempt is refunded
	// once the server acknowledges more of the stream than before it. It
	// still needs one attempt left to start, and its retries are charged.
	MaxDials int
	// Peers is the full static cluster membership, identical to the
	// servers' -peers list. When set, the first dial targets the session's
	// jump-hash owner, a peer that stops answering is marked dead and the
	// owner recomputed among survivors (reviving everyone when all look
	// dead), and the addr argument is ignored.
	Peers []string
	// MaxRedirects bounds how many Redirect frames one Replay follows
	// (default 8), separately from MaxDials: a redirect is steering, not a
	// failed dial, so it refunds its dial attempt — and a redirect loop
	// therefore errors with a distinct message instead of silently burning
	// the dial budget.
	MaxRedirects int
	// DialBackoff is the base delay between dial attempts; retries back off
	// exponentially (seeded jitter included) up to DialBackoffMax
	// (defaults 10ms and 2s). A fleet of clients orphaned by a daemon
	// restart therefore spreads its reconnects instead of stampeding.
	DialBackoff    time.Duration
	DialBackoffMax time.Duration
	// Timeout bounds each dial and the final verdict wait (default 30s).
	Timeout time.Duration
	// FramePause sleeps between data frames (0 = stream flat out),
	// approximating a sensor that produces samples in real time; the
	// handoff benchmark uses it to keep a wave mid-stream across a drain.
	FramePause time.Duration
	// Stats, when set, receives measurements from the replay — the fleet
	// load generator reads verdict latency from here.
	Stats *ReplayStats
}

// ReplayStats carries measurements out of one Replay call. The counts are
// filled in when Replay fails too.
type ReplayStats struct {
	// FinishLatency is the time from sending Finish to the verdict arriving:
	// the tail flush plus the server's final decision, the latency an
	// operator waits on at the end of a print.
	FinishLatency time.Duration
	// Dials is how many connection attempts the replay made, failed ones
	// included (1 = no reconnects).
	Dials int
	// Redirects counts Redirect frames followed to another peer.
	Redirects int
	// StateLost counts resumes downgraded to a fresh Hello because no peer
	// retained the session (degraded: the stream restarted from sample 0).
	StateLost int
	// MaxReconnectPause is the longest the stream stalled across one
	// mid-session reconnect, dial start to handshake complete — the client-
	// observed pause a peer drain or crash causes.
	MaxReconnectPause time.Duration
}

type replayFrame struct {
	ch     int
	seq    uint64
	values []float64
}

// Replay streams one signal per channel to addr as session h, injecting the
// configured defects, then sends per-channel EOS (always declaring each
// channel's full extent) and Finish, and returns the server's verdict.
// Transient connection failures mid-stream reconnect and resume from the
// server's committed counts; a ServerError aborts immediately. A resume
// redial that finds the session already ended returns its verdict.
func Replay(addr string, h Hello, signals []*sigproc.Signal, opt ReplayOptions) (v *Verdict, err error) {
	if len(signals) != len(h.Channels) {
		return nil, fmt.Errorf("ingest: %d signals for %d channels", len(signals), len(h.Channels))
	}
	if opt.FrameSamples <= 0 {
		opt.FrameSamples = 100
	}
	if opt.MaxDials <= 0 {
		opt.MaxDials = 8
	}
	if opt.MaxRedirects <= 0 {
		opt.MaxRedirects = 8
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.DialBackoff <= 0 {
		opt.DialBackoff = 10 * time.Millisecond
	}
	if opt.DialBackoffMax <= 0 {
		opt.DialBackoffMax = 2 * time.Second
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	frames, totals := buildSchedule(signals, h.Channels, rng, opt)

	// dial retries transient connection failures with seeded, jittered
	// exponential backoff, spending whatever remains of the MaxDials budget
	// (scheduled reconnects that find the stream progressed are refunded).
	// ECONNREFUSED is transient here: a restarting daemon refuses connections
	// until its listener is back, and that window is exactly what the backoff
	// is for. So is the server's "already attached" rejection: a deliberate
	// reconnect can out-race the server noticing the old connection died, and
	// one backoff later the session is detached and ours again. So is
	// "migrated": a draining peer handed our session to its successor, and
	// the redial gets redirected there. So is a verdict in place of the
	// HelloAck of a dial that is not a resume: an earlier print that used
	// this id has ended and is on its way out. Every other ServerError
	// (quota, shed, layout) stays fatal.
	//
	// With Peers set, each attempt targets the session's jump-hash owner
	// under this client's view of peer liveness — the same OwnerOf the
	// servers use, so client failover and server redirects agree. A target
	// that fails transiently is marked dead; Redirect replies steer (and
	// stick, so reconnects return to the peer that holds the session). A
	// redirect toward a peer we just found dead, or straight back to the
	// peer that issued the previous one, means two health views disagree for
	// now — wait out a backoff step before following it instead of bouncing
	// at network speed until the redirect budget is gone.
	dials, refunded, redirects, stateLost := 0, 0, 0, 0
	if opt.Stats != nil {
		defer func() {
			opt.Stats.Dials, opt.Stats.Redirects, opt.Stats.StateLost = dials, redirects, stateLost
		}()
	}
	acked := false // a HelloAck arrived: a resume redial's ending is ours
	defer func() {
		var ended *endedError
		if errors.As(err, &ended) && acked && h.ExpectResume {
			v, err = ended.v, nil
		}
	}()
	dead := make([]bool, len(opt.Peers))
	redirected := "" // sticky preferred target: last redirect followed or dial that worked
	bouncer := ""    // the peer that issued the last redirect
	idxOf := func(a string) int {
		for i, p := range opt.Peers {
			if p == a {
				return i
			}
		}
		return -1
	}
	target := func() string {
		if redirected != "" {
			return redirected
		}
		if len(opt.Peers) == 0 {
			return addr
		}
		all := true
		for _, d := range dead {
			if !d {
				all = false
				break
			}
		}
		if all {
			// Every peer looked dead: the view is stale by construction
			// (somebody is usually up) — revive them all and retry.
			for i := range dead {
				dead[i] = false
			}
		}
		return opt.Peers[OwnerOf(h.SessionID, len(opt.Peers), func(i int) bool { return !dead[i] })]
	}
	dial := func() (*Client, error) {
		for {
			budget := opt.MaxDials + refunded - dials
			if budget < 1 {
				return nil, fmt.Errorf("ingest: dial budget exhausted after %d attempts", dials-refunded)
			}
			lastTarget := ""
			c, err := resilience.Do(context.Background(), resilience.Policy{
				MaxAttempts: budget,
				BaseDelay:   opt.DialBackoff,
				MaxDelay:    opt.DialBackoffMax,
				Seed:        opt.Seed + int64(dials),
				Classify: func(err error) bool {
					if resilience.IsTransientNetwork(err) {
						return true
					}
					var se *ServerError
					var ended *endedError
					return errors.As(err, &se) && strings.Contains(se.Msg, "already attached") ||
						isMigratedReject(err) || errors.As(err, &ended) && !(acked && h.ExpectResume)
				},
			}, func(context.Context) (*Client, error) {
				dials++
				lastTarget = target()
				cl, err := Dial(lastTarget, h, opt.Timeout)
				if err != nil && resilience.IsTransientNetwork(err) {
					// Unreachable: stop preferring this peer and let the next
					// attempt recompute the owner among the survivors.
					if i := idxOf(lastTarget); i >= 0 {
						dead[i] = true
					}
					redirected = ""
				}
				return cl, err
			})
			var re *RedirectError
			if errors.As(err, &re) {
				// Steering, not a failed dial: refund the attempt and charge
				// the separate redirect budget.
				dials--
				redirects++
				if redirects > opt.MaxRedirects {
					return nil, fmt.Errorf("ingest: redirect loop: session %s bounced %d times (max redirects %d), last toward %s",
						h.SessionID, redirects, opt.MaxRedirects, re.Addr)
				}
				back := re.Addr == bouncer
				redirected, bouncer = re.Addr, lastTarget
				if i := idxOf(re.Addr); i >= 0 && dead[i] {
					redirected = ""
				}
				if redirected == "" || back {
					time.Sleep(min(opt.DialBackoff*time.Duration(1<<uint(min(redirects, 16))), opt.DialBackoffMax))
				}
				continue
			}
			if err != nil && errors.Is(err, ErrNoState) && h.ExpectResume {
				// The owner has nothing retained for us — it crashed without
				// handing off, or retention expired. Downgrade to a fresh
				// Hello: degraded (the stream restarts) but never wedged.
				h.ExpectResume = false
				stateLost++
				continue
			}
			if err != nil {
				return nil, err
			}
			// Future reconnects must claim retained state, and should return
			// to the peer that holds it.
			h.ExpectResume, acked = true, true
			redirected = lastTarget
			return c, nil
		}
	}
	c, err := dial()
	if err != nil {
		return nil, err
	}
	defer func() {
		if c != nil {
			c.Close() //nolint:errcheck // best-effort cleanup
		}
	}()

	// reconnect re-dials and rewinds the schedule to the start: the server's
	// committed counts can move BACKWARD across a reconnect (a crashed daemon
	// recovers from its last durable snapshot, behind what it acked before
	// dying), so the resume point must come from the fresh HelloAck, not from
	// how far this client got. Re-sent frames wholly behind the new commit
	// point are skipped below; partial overlaps are trimmed server-side.
	pos := 0
	reconnect := func() error {
		start := time.Now()
		c.Close() //nolint:errcheck // tearing down on purpose
		var err error
		if c, err = dial(); err != nil {
			return err
		}
		if opt.Stats != nil {
			if pause := time.Since(start); pause > opt.Stats.MaxReconnectPause {
				opt.Stats.MaxReconnectPause = pause
			}
		}
		pos = 0
		return nil
	}
	sent := 0
	for {
		for pos < len(frames) {
			fr := frames[pos]
			lanes := uint64(h.Channels[fr.ch].Lanes)
			if int(fr.ch) < len(c.Committed) {
				if committed := c.Committed[fr.ch]; fr.seq+uint64(len(fr.values))/lanes <= committed {
					pos++ // wholly behind the server's commit point after a resume
					continue
				}
			}
			if err := c.SendData(fr.ch, fr.seq, fr.values); err != nil {
				if !resilience.IsTransientNetwork(err) {
					return nil, err
				}
				if err := reconnect(); err != nil {
					return nil, err
				}
				continue // retry the same frame on the new connection
			}
			pos++
			sent++
			if opt.FramePause > 0 {
				time.Sleep(opt.FramePause)
			}
			if opt.ReconnectAfter > 0 && sent%opt.ReconnectAfter == 0 && pos < len(frames) {
				// A planned reconnect is not a failure, so its attempt is
				// refunded once the server proves it holds more of the stream
				// than before it. A server that accepts every connection but
				// never commits is failing the stream and is not refunded.
				before := ackedTotal(c)
				if err := reconnect(); err != nil {
					return nil, err
				}
				if ackedTotal(c) > before {
					refunded++
				}
			}
		}
		// EOS and Finish ride the same resume loop: a daemon killed during
		// the finish phase recovers the session detached, and the reconnect
		// re-sends the (mostly committed-skipped) tail before finishing again.
		// A "migrated" rejection rides the same path: a peer draining while
		// this client awaited its verdict handed the session to a successor,
		// and the redial gets redirected there to finish.
		v, err := finishOnce(c, totals, opt)
		if err != nil && (resilience.IsTransientNetwork(err) || isMigratedReject(err)) {
			if rerr := reconnect(); rerr != nil {
				return nil, rerr
			}
			continue
		}
		return v, err
	}
}

// ackedTotal sums the committed counts of the connection's HelloAck: how
// much of the stream the server held when the connection opened.
func ackedTotal(c *Client) uint64 {
	var n uint64
	for _, v := range c.Committed {
		n += v
	}
	return n
}

// finishOnce sends every channel's EOS and asks for the verdict on the
// current connection.
func finishOnce(c *Client, totals []uint64, opt ReplayOptions) (*Verdict, error) {
	for ch, total := range totals {
		if err := c.SendEOS(ch, total); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	v, err := c.Finish(opt.Timeout)
	if err == nil && opt.Stats != nil {
		opt.Stats.FinishLatency = time.Since(start)
	}
	return v, err
}

// buildSchedule turns the per-channel signals into a defect-injected frame
// send order, returning the frames and each channel's declared total.
func buildSchedule(signals []*sigproc.Signal, specs []ChannelSpec, rng *rand.Rand, opt ReplayOptions) ([]replayFrame, []uint64) {
	totals := make([]uint64, len(signals))
	perChannel := make([][]replayFrame, len(signals))
	for ch, sig := range signals {
		lanes := specs[ch].Lanes
		n := sig.Len()
		totals[ch] = uint64(n)
		limit := n
		for _, cut := range opt.CutChannels {
			if ch == cut {
				limit = n / 2
			}
		}
		for start := 0; start < limit; start += opt.FrameSamples {
			end := min(start+opt.FrameSamples, limit)
			values := make([]float64, 0, (end-start)*lanes)
			for i := start; i < end; i++ {
				for l := 0; l < lanes; l++ {
					values = append(values, sig.Data[l][i])
				}
			}
			perChannel[ch] = append(perChannel[ch], replayFrame{ch: ch, seq: uint64(start), values: values})
		}
	}
	// Round-robin across channels approximates time-aligned live capture.
	var ordered []replayFrame
	for i := 0; ; i++ {
		any := false
		for ch := range perChannel {
			if i < len(perChannel[ch]) {
				ordered = append(ordered, perChannel[ch][i])
				any = true
			}
		}
		if !any {
			break
		}
	}
	// Defects: drop, duplicate, then shuffle within windows.
	var out []replayFrame
	for _, fr := range ordered {
		if opt.DropProb > 0 && rng.Float64() < opt.DropProb {
			continue
		}
		out = append(out, fr)
		if opt.DupProb > 0 && rng.Float64() < opt.DupProb {
			out = append(out, fr)
		}
	}
	if w := opt.ShuffleWindow; w > 1 {
		for start := 0; start < len(out); start += w {
			end := min(start+w, len(out))
			rng.Shuffle(end-start, func(i, j int) {
				out[start+i], out[start+j] = out[start+j], out[start+i]
			})
		}
	}
	return out, totals
}
