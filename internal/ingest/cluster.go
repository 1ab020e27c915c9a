package ingest

// Multi-process fleet clustering (DESIGN.md §17). A Cluster turns N nsyncd
// processes with a static, identical peer list into one fleet: jump-hash
// session ownership with Redirect steering for clients that dial the wrong
// peer, jittered health probes that double as tenant-quota gossip, and a
// coordinator-less drain that hands every live session — identity, commit
// points, monitor state, and, when needed, the model blob itself — to its
// successor peer instead of dropping it.
//
// Peer traffic rides the ingest listener: the first frame on a connection
// discriminates (Hello = session, Ping/Handoff/ModelFetch = peer), so a
// cluster needs no second port and no coordinator process.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nsync/internal/obs"
)

var (
	metRedirects   = obs.GetCounter("ingest.redirects")
	metHandoffOut  = obs.GetCounter("ingest.handoff_out")
	metHandoffIn   = obs.GetCounter("ingest.handoff_in")
	metHandoffFail = obs.GetCounter("ingest.handoff_failed")
	metNoState     = obs.GetCounter("ingest.no_state")
	metPeerDown    = obs.GetCounter("ingest.peer_probe_failures")
)

// maxModelBlob bounds a peer-fetched model blob so a corrupt chunk stream
// cannot balloon memory.
const maxModelBlob = 64 << 20

// peerIOTimeout bounds each peer-channel frame exchange (probe replies,
// handoff pushes, model chunks).
const peerIOTimeout = 30 * time.Second

// OwnerOf maps a session id onto one of n statically configured peers with
// a jump consistent hash, skipping peers alive reports false: the key
// rehashes deterministically until it lands on a live peer. Two properties
// matter for the fleet: a key whose first-hop owner is alive never moves
// when some other peer dies, and every peer and every cluster-aware client
// computes the identical owner from the same alive view — so redirect
// decisions, client failover, and handoff successor choice all agree
// without a coordinator. A nil alive means all peers count. When every peer
// looks dead the static first-hop owner is returned, so callers degrade to
// serving locally instead of wedging.
func OwnerOf(sessionID string, n int, alive func(int) bool) int {
	if n <= 0 {
		return 0
	}
	key := fnv64(sessionID)
	for hop := 0; hop < 4*n+8; hop++ {
		b := jumpHash(key, n)
		if alive == nil || alive(b) {
			return b
		}
		// Splitmix-style deterministic rehash; shared by servers and clients.
		key = key*6364136223846793005 + 1442695040888963407
	}
	return jumpHash(fnv64(sessionID), n)
}

// fnv64 hashes a session id to the ownership key space.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // hash.Hash never errors
	return h.Sum64()
}

// jumpHash is Lamping & Veach's jump consistent hash: maps key uniformly
// onto [0, buckets) with no lookup table, and moves only 1/n of keys when a
// bucket is added.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(1<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ClusterConfig wires a Cluster into one nsyncd process. The tenant table,
// journal and model pool come from the server and pool given to Bind.
type ClusterConfig struct {
	// Peers is the full static membership, identical (same order) on every
	// peer and on cluster-aware clients; Peers[PeerID] is this process.
	Peers []string
	// PeerID is this process's index into Peers.
	PeerID int
	// ProbeInterval is the mean health-probe period per peer (default 1s);
	// each probe is jittered ±50% so a fleet of peers does not synchronize.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe's dial and exchange (default 2s).
	ProbeTimeout time.Duration
	// Logf receives cluster lifecycle lines.
	Logf func(format string, args ...any)
}

// Cluster is one peer's view of the fleet: the static membership, a liveness
// flag per peer maintained by probes, and the draining latch that flips
// ownership away from this peer during handoff.
type Cluster struct {
	cfg      ClusterConfig
	alive    []atomic.Bool
	draining atomic.Bool

	srv  *Server
	pool *SharedPool

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
}

// NewCluster validates the membership and returns a cluster that presumes
// every peer alive until a probe says otherwise (so a cold-booting fleet
// does not shed redirects before the first probe round).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("ingest: cluster needs at least one peer")
	}
	if cfg.PeerID < 0 || cfg.PeerID >= len(cfg.Peers) {
		return nil, fmt.Errorf("ingest: peer id %d outside peer list of %d", cfg.PeerID, len(cfg.Peers))
	}
	for i, p := range cfg.Peers {
		if p == "" {
			return nil, fmt.Errorf("ingest: empty address for peer %d", i)
		}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	c := &Cluster{cfg: cfg, alive: make([]atomic.Bool, len(cfg.Peers)), stop: make(chan struct{})}
	for i := range c.alive {
		c.alive[i].Store(true)
	}
	return c, nil
}

// Bind attaches the server the cluster drains on handoff and refills on
// receive, plus the pool that restores migrated-in sessions and serves and
// adopts model blobs. The server's tenant table carries the quota gossip
// (so MaxSessions holds approximately fleet-wide, see TenantTable), and its
// journal, when set, records handed-off sessions on arrival so they survive
// a crash of the receiving peer too. Call before Start and Serve.
func (c *Cluster) Bind(srv *Server, pool *SharedPool) {
	c.srv = srv
	c.pool = pool
}

// Start launches the per-peer health probe loops.
func (c *Cluster) Start() {
	c.startOnce.Do(func() {
		for j := range c.cfg.Peers {
			if j == c.cfg.PeerID {
				continue
			}
			c.wg.Add(1)
			go c.probeLoop(j)
		}
	})
}

// Close stops the probe loops.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Self reports this peer's advertised address.
func (c *Cluster) Self() string { return c.cfg.Peers[c.cfg.PeerID] }

// Alive reports this peer's current view of peer i's liveness.
func (c *Cluster) Alive(i int) bool {
	if i < 0 || i >= len(c.alive) {
		return false
	}
	return c.alive[i].Load()
}

// Draining reports whether HandoffAll has latched this peer out of
// ownership.
func (c *Cluster) Draining() bool { return c.draining.Load() }

// ownerAlive is the alive view ownership decisions use: a draining peer
// excludes itself, so every Hello it sees (and every handoff successor it
// picks) routes to the surviving membership.
func (c *Cluster) ownerAlive(i int) bool {
	if i == c.cfg.PeerID {
		return !c.draining.Load()
	}
	return c.alive[i].Load()
}

// OwnerFor reports which peer owns sessionID under the current alive view.
func (c *Cluster) OwnerFor(sessionID string) int {
	return OwnerOf(sessionID, len(c.cfg.Peers), c.ownerAlive)
}

// RedirectFor decides whether a Hello for sessionID should be bounced to
// another peer. Sessions this process already retains are always served
// locally (affinity beats ownership: a revived peer must not steal back a
// session that failed over while it was down), and a redirect is never
// issued toward a peer this process believes dead.
func (c *Cluster) RedirectFor(sessionID string, heldLocally bool) (addr string, peer int, ok bool) {
	if heldLocally {
		return "", 0, false
	}
	owner := c.OwnerFor(sessionID)
	if owner == c.cfg.PeerID || !c.alive[owner].Load() {
		return "", 0, false
	}
	return c.cfg.Peers[owner], owner, true
}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// ---- Health probes and quota gossip ----

func (c *Cluster) probeLoop(peer int) {
	defer c.wg.Done()
	next := c.probeDelays(peer)
	for {
		d := next()
		select {
		case <-c.stop:
			return
		case <-time.After(d):
		}
		c.probe(peer)
	}
}

// probeDelays returns the stream of waits between probes toward peer, each
// in [0.5, 1.5) × the interval so probes from a fleet of peers spread
// instead of synchronizing into bursts. The jitter is seeded from both ends
// of the probe, so the peers probing one target each draw their own
// sequence.
func (c *Cluster) probeDelays(peer int) func() time.Duration {
	rng := rand.New(rand.NewSource(int64(c.cfg.PeerID+1) ^ (int64(peer+1) * -0x61C8864680B583EB)))
	return func() time.Duration {
		return time.Duration(float64(c.cfg.ProbeInterval) * (0.5 + rng.Float64()))
	}
}

// probe performs one Ping/Pong exchange with peer, carrying this process's
// tenant usage out and merging the peer's usage (and liveness) back in.
func (c *Cluster) probe(peer int) {
	conn, err := net.DialTimeout("tcp", c.cfg.Peers[peer], c.cfg.ProbeTimeout)
	if err != nil {
		c.peerDown(peer, err)
		return
	}
	defer conn.Close()                                   //nolint:errcheck // probe connection, best effort
	conn.SetDeadline(time.Now().Add(c.cfg.ProbeTimeout)) //nolint:errcheck // net.Conn deadlines
	if err := WriteFrame(conn, &Frame{Type: FramePing, Peer: c.cfg.PeerID, Usage: c.localUsage(), Flags: c.drainFlag()}); err != nil {
		c.peerDown(peer, err)
		return
	}
	f, err := ReadFrame(bufio.NewReader(conn))
	if err != nil || f.Type != FramePong {
		c.peerDown(peer, fmt.Errorf("bad pong: %v", err))
		return
	}
	if f.Flags&PingFlagDraining != 0 {
		c.peerDraining(peer)
		return
	}
	c.peerUp(peer, f.Usage)
}

// drainFlag is the Ping/Pong flags byte advertising this peer's drain latch.
func (c *Cluster) drainFlag() uint8 {
	if c.draining.Load() {
		return PingFlagDraining
	}
	return 0
}

// GossipNow runs one synchronous probe round against every peer — the
// deterministic hook tests (and a drain about to pick successors) use
// instead of waiting out a probe period.
func (c *Cluster) GossipNow() {
	for j := range c.cfg.Peers {
		if j != c.cfg.PeerID {
			c.probe(j)
		}
	}
}

func (c *Cluster) localUsage() []TenantUsage {
	if c.srv == nil {
		return nil
	}
	return c.srv.tenants.Usage()
}

// setRemote folds a peer's gossiped tenant usage into the bound server's
// table; nil usage forgets the peer.
func (c *Cluster) setRemote(peer int, usage []TenantUsage) {
	if c.srv != nil {
		c.srv.tenants.SetRemote(peer, usage)
	}
}

func (c *Cluster) peerUp(peer int, usage []TenantUsage) {
	if peer < 0 || peer >= len(c.alive) || peer == c.cfg.PeerID {
		return
	}
	if !c.alive[peer].Swap(true) {
		c.logf("cluster: peer %d (%s) reachable", peer, c.cfg.Peers[peer])
	}
	c.setRemote(peer, usage)
}

func (c *Cluster) peerDown(peer int, err error) {
	if c.alive[peer].Swap(false) {
		metPeerDown.Inc()
		c.logf("cluster: peer %d (%s) unreachable: %v", peer, c.cfg.Peers[peer], err)
	}
	// A dead peer's gossiped sessions stop counting against the fleet quota;
	// its clients are about to fail over here and must not be double-counted.
	c.setRemote(peer, nil)
}

// peerDraining marks a peer out of the ownership set while its process is
// still reachable: a draining peer answers the wire (it has handoffs to
// push) but must stop attracting redirects, or a Hello for a session it no
// longer holds ping-pongs between it and the successor until the client's
// redirect budget runs dry.
func (c *Cluster) peerDraining(peer int) {
	if peer < 0 || peer >= len(c.alive) || peer == c.cfg.PeerID {
		return
	}
	if c.alive[peer].Swap(false) {
		c.logf("cluster: peer %d (%s) draining; ownership recomputed", peer, c.cfg.Peers[peer])
	}
	c.setRemote(peer, nil)
}

// ---- Inbound peer traffic ----

// HandlePeer serves a connection whose first frame marks it as peer (not
// session) traffic, returning false untouched when it is not. One
// connection may carry any sequence of Ping, Handoff, and ModelFetch
// exchanges; it ends when the peer closes it.
func (c *Cluster) HandlePeer(conn net.Conn, br *bufio.Reader, first *Frame) bool {
	switch first.Type {
	case FramePing, FrameHandoff, FrameModelFetch:
	default:
		return false
	}
	f := first
	for {
		conn.SetDeadline(time.Now().Add(peerIOTimeout)) //nolint:errcheck // net.Conn deadlines
		var err error
		switch f.Type {
		case FramePing:
			err = c.servePing(conn, f)
		case FrameHandoff:
			err = c.serveHandoff(conn, br, f)
		case FrameModelFetch:
			err = c.sendModelChunks(conn, f.Model)
		default:
			err = fmt.Errorf("unexpected %v frame on peer channel", f.Type)
		}
		if err != nil {
			c.logf("cluster: peer connection: %v", err)
			return true
		}
		if f, err = ReadFrame(br); err != nil {
			return true // EOF: the peer is done with this connection
		}
	}
}

func (c *Cluster) servePing(conn net.Conn, f *Frame) error {
	if f.Flags&PingFlagDraining != 0 {
		c.peerDraining(f.Peer)
	} else {
		c.peerUp(f.Peer, f.Usage)
	}
	return WriteFrame(conn, &Frame{Type: FramePong, Peer: c.cfg.PeerID, Usage: c.localUsage(), Flags: c.drainFlag()})
}

// serveHandoff re-admits one migrated session from its image, the decoded
// Handoff frame — fetching its model from the sender over the same
// connection if the hash is unknown here — and acks with an empty message
// on success.
func (c *Cluster) serveHandoff(conn net.Conn, br *bufio.Reader, img *Frame) error {
	msg := c.admitHandoff(conn, br, img)
	if msg == "" {
		metHandoffIn.Inc()
		c.logf("cluster: session %s migrated in (tenant %q, model %q, committed %v, %d-byte state)",
			img.SessionID, img.Tenant, img.Model, img.Committed, len(img.Blob))
	} else {
		c.logf("cluster: session %s handoff refused: %s", img.SessionID, msg)
	}
	return WriteFrame(conn, &Frame{Type: FrameHandoffAck, SessionID: img.SessionID, Message: msg})
}

func (c *Cluster) admitHandoff(conn net.Conn, br *bufio.Reader, img *Frame) string {
	if c.srv == nil || c.pool == nil {
		return "peer not accepting handoffs"
	}
	if c.draining.Load() {
		return "peer is draining"
	}
	if img.Model != "" && !c.pool.Has(img.Model) {
		if err := c.fetchModelFrom(conn, br, img.Model); err != nil {
			return fmt.Sprintf("model %s unavailable: %v", img.Model, err)
		}
		c.logf("cluster: model %s fetched from handoff sender", img.Model)
	}
	// Journal the arrival before admitting: a crash of this peer right after
	// the ack must still find the session at boot. A failed admit below runs
	// the ordinary skip path, which marks it finished again.
	if j := c.srv.cfg.Journal; j != nil {
		j.Admit(img.SessionID, img.Tenant, img.Model, img.Priority, img.Channels)
		j.Snapshot(img.SessionID, img.Committed, img.Blob)
	}
	if n := c.srv.Recover([]*Frame{img}, c.pool); n != 1 {
		return "not admitted" // Recover logged the reason and finished the journal entry
	}
	return ""
}

func (c *Cluster) fetchModelFrom(conn net.Conn, br *bufio.Reader, version string) error {
	if err := WriteFrame(conn, &Frame{Type: FrameModelFetch, Model: version}); err != nil {
		return err
	}
	blob, err := readModelChunks(br, version)
	if err != nil {
		return err
	}
	if _, err := c.pool.AdoptBlob(version, blob); err != nil {
		return err
	}
	return nil
}

// sendModelChunks streams one model's gob blob as ModelData frames (an
// Error frame when it cannot be served, which the fetching side surfaces as
// the fetch failure).
func (c *Cluster) sendModelChunks(conn net.Conn, version string) error {
	var blob []byte
	var err error
	if c.pool == nil {
		err = errors.New("no model pool")
	} else {
		blob, err = c.pool.ModelBlob(version)
	}
	if err != nil {
		return WriteFrame(conn, &Frame{Type: FrameError, Message: fmt.Sprintf("model %s: %v", version, err)})
	}
	const chunk = 512 << 10
	for off := 0; ; off += chunk {
		end := min(off+chunk, len(blob))
		last := end == len(blob)
		if err := WriteFrame(conn, &Frame{Type: FrameModelData, Model: version, Seq: uint64(off), Last: last, Blob: blob[off:end]}); err != nil {
			return err
		}
		if last {
			return nil
		}
	}
}

// readModelChunks reassembles a ModelData chunk stream.
func readModelChunks(br *bufio.Reader, version string) ([]byte, error) {
	var out []byte
	for {
		f, err := ReadFrame(br)
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case FrameModelData:
			if f.Model != version {
				return nil, fmt.Errorf("chunk for model %q, want %q", f.Model, version)
			}
			if f.Seq != uint64(len(out)) {
				return nil, fmt.Errorf("chunk at offset %d, want %d", f.Seq, len(out))
			}
			if len(out)+len(f.Blob) > maxModelBlob {
				return nil, fmt.Errorf("model blob exceeds %d bytes", maxModelBlob)
			}
			out = append(out, f.Blob...)
			if f.Last {
				return out, nil
			}
		case FrameError:
			return nil, &ServerError{Msg: f.Message}
		default:
			return nil, fmt.Errorf("unexpected %v frame during model fetch", f.Type)
		}
	}
}

// ---- Drain / handoff ----

// handoffSession is one captured session's image plus the live handle
// whose push outcome the drain reports back to it.
type handoffSession struct {
	*Frame
	sess *session
}

// HandoffAll drains this peer without a coordinator: it latches the peer
// out of ownership (new Hellos redirect to survivors), captures and
// serializes every live session via its worker (falling back to the last
// durable journal snapshot when a worker cannot reply), pushes each to its
// jump-hash successor, and ends the local copy as migrated only after the
// successor acks — so a failed push returns the session to the ordinary
// local drain, never to a lost session. It returns how many sessions
// migrated and how many could not.
func (c *Cluster) HandoffAll(ctx context.Context) (migrated, failed int) {
	c.draining.Store(true)
	// Announce the drain before touching a single session: the probe round
	// below carries PingFlagDraining, so every reachable peer drops this one
	// from its ownership view immediately. Without this, a successor that
	// still sees us alive bounces mid-drain Hellos back here and the client
	// ping-pongs until its redirect budget dies.
	c.GossipNow()
	if c.srv == nil {
		return 0, 0
	}
	byPeer := map[int][]handoffSession{}
	for _, hs := range c.srv.exportSessions(5 * time.Second) {
		succ := c.OwnerFor(hs.SessionID)
		if succ == c.cfg.PeerID || !c.alive[succ].Load() {
			c.logf("cluster: session %s has no live successor", hs.SessionID)
			hs.sess.step(event{kind: evRefuse})
			failed++
			continue
		}
		byPeer[succ] = append(byPeer[succ], hs)
	}
	peers := make([]int, 0, len(byPeer))
	for p := range byPeer {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	for _, p := range peers {
		m := c.pushBatch(ctx, p, byPeer[p])
		migrated += m
		failed += len(byPeer[p]) - m
	}
	return migrated, failed
}

// pushBatch hands one successor its share of the drain over a single
// connection and resolves every capture: an ack migrates the session, a
// refusal or a transport failure (which spends the rest of the batch)
// returns it to the local drain. An image that cannot be encoded is refused
// before it touches the connection, so the batch goes on. It returns how
// many the successor acked.
func (c *Cluster) pushBatch(ctx context.Context, peer int, batch []handoffSession) (acked int) {
	conn, err := net.DialTimeout("tcp", c.cfg.Peers[peer], c.cfg.ProbeTimeout)
	if err != nil {
		c.logf("cluster: handoff to peer %d (%s) failed: %v", peer, c.cfg.Peers[peer], err)
	} else {
		defer conn.Close() //nolint:errcheck // handoff connection, best effort
	}
	br := bufio.NewReader(conn)
	for _, hs := range batch {
		refusal := ""
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			if refusal, err = c.pushOne(conn, br, hs); err != nil {
				c.logf("cluster: handoff %s to peer %d failed: %v", hs.SessionID, peer, err)
			}
		}
		if err == nil && refusal == "" {
			acked++
			hs.sess.step(event{kind: evAck})
			continue
		}
		if refusal != "" {
			c.logf("cluster: handoff %s to peer %d refused: %s", hs.SessionID, peer, refusal)
		}
		metHandoffFail.Inc()
		hs.sess.step(event{kind: evRefuse})
	}
	return acked
}

// pushOne sends one session's image and serves any ModelFetch the
// successor issues before it acks. A non-empty refusal means the image
// could not be encoded or the successor declined; an error means the
// connection failed.
func (c *Cluster) pushOne(conn net.Conn, br *bufio.Reader, hs handoffSession) (refusal string, err error) {
	buf, err := c.encodeHandoff(hs.Frame)
	if err != nil {
		return fmt.Sprintf("cannot encode handoff: %v", err), nil
	}
	conn.SetDeadline(time.Now().Add(peerIOTimeout)) //nolint:errcheck // net.Conn deadlines
	if _, err := conn.Write(buf); err != nil {
		return "", err
	}
	for {
		f, err := ReadFrame(br)
		if err != nil {
			return "", err
		}
		switch f.Type {
		case FrameModelFetch:
			if err := c.sendModelChunks(conn, f.Model); err != nil {
				return "", err
			}
		case FrameHandoffAck:
			if f.SessionID != hs.SessionID {
				return "", fmt.Errorf("ack for session %q, want %q", f.SessionID, hs.SessionID)
			}
			return f.Message, nil
		default:
			return "", fmt.Errorf("unexpected %v frame awaiting handoff ack", f.Type)
		}
	}
}

// encodeHandoff encodes a session image for the wire. The frame-size limit
// applies here, to live captures and journal fallbacks alike: an image
// whose state does not fit in one frame migrates without it, and the
// successor starts the session at sample 0 (see Recover).
func (c *Cluster) encodeHandoff(img *Frame) ([]byte, error) {
	buf, err := AppendFrame(nil, img)
	if err == nil || len(img.Blob) == 0 {
		return buf, err
	}
	c.logf("cluster: session %s: %v; migrating without its %d-byte state", img.SessionID, err, len(img.Blob))
	bare := *img
	bare.Blob = nil
	return AppendFrame(nil, &bare)
}
