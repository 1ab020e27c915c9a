package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsync/internal/sigproc"
)

// TestOwnerOfProperties pins the ownership function the whole fleet agrees
// on: determinism, the stability that makes failover cheap (a key whose
// first-hop owner is alive never moves when some other peer dies), the
// all-dead fallback, and that every peer owns a share of the keyspace.
func TestOwnerOfProperties(t *testing.T) {
	const n = 3
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = fmt.Sprintf("session-%d", i)
	}
	counts := make([]int, n)
	for _, id := range ids {
		a := OwnerOf(id, n, nil)
		if b := OwnerOf(id, n, nil); a != b {
			t.Fatalf("%s: owner not deterministic: %d vs %d", id, a, b)
		}
		if a < 0 || a >= n {
			t.Fatalf("%s: owner %d out of range", id, a)
		}
		counts[a]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Errorf("peer %d owns nothing across %d ids", p, len(ids))
		}
	}

	// Kill each peer in turn: keys owned by the others must not move, and
	// keys owned by the dead peer must land on a live one.
	for dead := 0; dead < n; dead++ {
		alive := func(i int) bool { return i != dead }
		for _, id := range ids {
			before := OwnerOf(id, n, nil)
			after := OwnerOf(id, n, alive)
			if before != dead && after != before {
				t.Errorf("%s: owner moved %d -> %d when unrelated peer %d died", id, before, after, dead)
			}
			if before == dead && after == dead {
				t.Errorf("%s: still owned by dead peer %d", id, dead)
			}
		}
	}

	// All peers dead: fall back to the static first hop instead of wedging.
	for _, id := range ids {
		if got, want := OwnerOf(id, n, func(int) bool { return false }), OwnerOf(id, n, nil); got != want {
			t.Errorf("%s: all-dead fallback %d, want static owner %d", id, got, want)
		}
	}
}

// TestClusterProbeJitterPerPeer: two peers probing the same target draw
// different delay sequences, so a fleet's probes spread instead of landing
// on a target together; each peer's own sequence stays reproducible.
func TestClusterProbeJitterPerPeer(t *testing.T) {
	peers := []string{"a:1", "b:1", "c:1"}
	delays := func(id int) []time.Duration {
		cl, err := NewCluster(ClusterConfig{Peers: peers, PeerID: id})
		if err != nil {
			t.Fatal(err)
		}
		next := cl.probeDelays(2)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = next()
			if out[i] < time.Second/2 || out[i] >= 3*time.Second/2 {
				t.Fatalf("peer %d: delay %v outside [0.5, 1.5) × the 1s default interval", id, out[i])
			}
		}
		return out
	}
	d0, d1 := delays(0), delays(1)
	if reflect.DeepEqual(d0, d1) {
		t.Fatalf("peers 0 and 1 probe peer 2 with the same delays %v", d0)
	}
	if again := delays(0); !reflect.DeepEqual(again, d0) {
		t.Fatalf("peer 0's delays are not reproducible: %v then %v", d0, again)
	}
}

// sessionOwnedBy searches for a session id whose static jump-hash owner is
// the given peer — tests use it to aim traffic at a specific peer.
func sessionOwnedBy(t *testing.T, owner, n int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("owned-%d-%d", owner, i)
		if OwnerOf(id, n, nil) == owner {
			return id
		}
	}
	t.Fatalf("no session id owned by peer %d of %d", owner, n)
	return ""
}

type fleetPeer struct {
	addr    string
	srv     *Server
	cluster *Cluster
	pool    *SharedPool
	tenants *TenantTable
}

// bootFleetPeer starts one cluster-aware server on l, bound into the given
// static membership as peer id. Probes only run when probe > 0.
func bootFleetPeer(t *testing.T, l net.Listener, peers []string, id int, pool *SharedPool, probe time.Duration) *fleetPeer {
	t.Helper()
	tenants := NewTenantTable(TenantQuota{})
	interval := probe
	if interval <= 0 {
		interval = time.Hour // effectively quiescent; tests drive GossipNow
	}
	cl, err := NewCluster(ClusterConfig{
		Peers: peers, PeerID: id, ProbeInterval: interval, ProbeTimeout: time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Factory: pool, Tenants: tenants, Cluster: cl,
		ReadTimeout: 20 * time.Second, Retention: time.Minute, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Bind(srv, pool)
	if probe > 0 {
		cl.Start()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	t.Cleanup(func() {
		cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("peer %d shutdown: %v", id, err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("peer %d serve: %v", id, err)
		}
	})
	return &fleetPeer{addr: peers[id], srv: srv, cluster: cl, pool: pool, tenants: tenants}
}

// startFleetPeers boots an n-peer fleet on loopback listeners whose
// addresses form the shared membership list.
func startFleetPeers(t *testing.T, n int, mkPool func(i int) *SharedPool) []*fleetPeer {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = l.Addr().String()
	}
	fleet := make([]*fleetPeer, n)
	for i := range fleet {
		fleet[i] = bootFleetPeer(t, listeners[i], peers, i, mkPool(i), 0)
	}
	return fleet
}

// TestClusterRedirectSteersToOwner: a Hello at the wrong peer gets a typed
// Redirect naming the owner, a fleet-unaware client pointed at the wrong
// peer still reaches a verdict by following it, and a client that dials its
// home peer directly is served without any redirect — the legacy path.
func TestClusterRedirectSteersToOwner(t *testing.T) {
	fx := fixture(t)
	var version string
	fleet := startFleetPeers(t, 2, func(int) *SharedPool {
		pool := NewSharedPool(nil)
		v, err := pool.Register(fixtureModel(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		version = v
		return pool
	})

	id := sessionOwnedBy(t, 1, 2)
	hello := Hello{SessionID: id, Priority: 5, Channels: fx.specs, Model: version}
	_, err := Dial(fleet[0].addr, hello, 5*time.Second)
	var re *RedirectError
	if !errors.As(err, &re) {
		t.Fatalf("wrong-peer dial: got %v, want RedirectError", err)
	}
	if re.Addr != fleet[1].addr || re.Peer != 1 {
		t.Fatalf("redirected to %q peer %d, want %q peer 1", re.Addr, re.Peer, fleet[1].addr)
	}

	rng := rand.New(rand.NewSource(31))
	runs := []*sigproc.Signal{perturbed(rng, fx.refs[0]), perturbed(rng, fx.refs[1])}
	stats := &ReplayStats{}
	v, err := Replay(fleet[0].addr, hello, runs, ReplayOptions{FrameSamples: 100, Stats: stats})
	if err != nil {
		t.Fatalf("replay via redirect: %v", err)
	}
	if v.Intrusion {
		t.Errorf("benign run flagged as intrusion: %+v", v)
	}
	if stats.Redirects != 1 {
		t.Errorf("Redirects = %d, want 1", stats.Redirects)
	}

	// Home peer, dialed directly: served in place, no Redirect frame — the
	// path a legacy client that cannot parse redirects depends on.
	home := sessionOwnedBy(t, 0, 2)
	stats2 := &ReplayStats{}
	v, err = Replay(fleet[0].addr, Hello{SessionID: home, Priority: 5, Channels: fx.specs, Model: version},
		runs, ReplayOptions{FrameSamples: 100, Stats: stats2})
	if err != nil {
		t.Fatalf("home-peer replay: %v", err)
	}
	if v.Intrusion {
		t.Errorf("benign home run flagged as intrusion: %+v", v)
	}
	if stats2.Redirects != 0 {
		t.Errorf("home-peer Redirects = %d, want 0", stats2.Redirects)
	}
}

// TestClusterHandoffPreservesVerdict is the drain contract end to end: a
// session streams half its print at its owner, the owner drains via
// HandoffAll, the successor — which does not even have the session's model —
// fetches the blob over the peer channel and re-admits the session, the
// client resumes through a redirect, and the final verdict matches a
// never-drained run alert for alert. Tenant usage gossip rides the same
// probe exchange and is checked mid-flight.
func TestClusterHandoffPreservesVerdict(t *testing.T) {
	fx := fixture(t)
	var version string
	fleet := startFleetPeers(t, 2, func(i int) *SharedPool {
		pool := NewSharedPool(nil)
		if i == 0 { // only the draining peer holds the model at first
			v, err := pool.Register(fixtureModel(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			version = v
		}
		return pool
	})

	rng := rand.New(rand.NewSource(55))
	runs := []*sigproc.Signal{perturbed(rng, fx.refs[0]), attacked(rng, fx.refs[1])}
	if !fx.inProcessVerdict(t, 1, runs) {
		t.Fatal("fixture: malicious run not detected in process")
	}

	// Ground truth: the same signals, never drained, via peer 0.
	clean := sessionOwnedBy(t, 0, 2)
	const frameSamples = 50
	vClean, err := Replay(fleet[0].addr, Hello{SessionID: clean, Priority: 5, Channels: fx.specs, Model: version, Tenant: "plant-berlin"},
		runs, ReplayOptions{FrameSamples: frameSamples})
	if err != nil {
		t.Fatalf("clean replay: %v", err)
	}

	// Stream the first 800 of 2000 samples at the owner, then leave the
	// client attached while the peer drains underneath it. The id is the
	// clean run's, so wait until that session's worker has removed it: a
	// Hello arriving before would resume the finished session.
	waitFor(t, 5*time.Second, func() bool { return fleet[0].srv.SessionCount() == 0 })
	id := sessionOwnedBy(t, 0, 2)
	hello := Hello{SessionID: id, Priority: 5, Channels: fx.specs, Model: version, Tenant: "plant-berlin"}
	c, err := Dial(fleet[0].addr, hello, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < 800; start += frameSamples {
		for ch, sig := range runs {
			lanes := fx.specs[ch].Lanes
			values := make([]float64, 0, frameSamples*lanes)
			for i := start; i < start+frameSamples; i++ {
				for l := 0; l < lanes; l++ {
					values = append(values, sig.Data[l][i])
				}
			}
			if err := c.SendData(ch, uint64(start), values); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Let the worker absorb everything so the captured state is at a known
	// point (the capture itself is consistent at any point; this just makes
	// the assertions below deterministic).
	waitFor(t, 5*time.Second, func() bool { return fleet[0].srv.QueuedFrames() == 0 })

	// Quota gossip: one probe round pushes peer 0's tenant usage to peer 1,
	// where it counts against the fleet-wide quota.
	fleet[0].cluster.GossipNow()
	fleet[1].tenants.SetQuota("plant-berlin", TenantQuota{MaxSessions: 1})
	if _, reject := fleet[1].tenants.reserve("plant-berlin"); !strings.Contains(reject, "quota") {
		t.Errorf("peer 1 admitted plant-berlin despite gossiped remote usage (reject=%q)", reject)
	}
	fleet[1].tenants.SetQuota("plant-berlin", TenantQuota{})

	migrated, failed := fleet[0].cluster.HandoffAll(context.Background())
	if migrated != 1 || failed != 0 {
		t.Fatalf("HandoffAll = (%d migrated, %d failed), want (1, 0)", migrated, failed)
	}
	if !fleet[0].cluster.Draining() {
		t.Error("drained peer does not report Draining")
	}
	if !fleet[1].pool.Has(version) {
		t.Error("successor did not fetch the model alongside the handoff")
	}
	if got := fleet[1].srv.SessionCount(); got != 1 {
		t.Fatalf("successor SessionCount = %d after handoff, want 1", got)
	}
	c.Close() //nolint:errcheck // the server terminated the session under us
	waitFor(t, 5*time.Second, func() bool { return fleet[0].srv.SessionCount() == 0 })

	// Resume against the drained peer: it no longer owns the session and
	// must steer the client to the successor, where the full replay resumes
	// past the migrated commit point.
	stats := &ReplayStats{}
	v, err := Replay(fleet[0].addr, hello, runs, ReplayOptions{FrameSamples: frameSamples, Stats: stats})
	if err != nil {
		t.Fatalf("resumed replay after handoff: %v", err)
	}
	if stats.Redirects < 1 {
		t.Errorf("resume followed %d redirects, want >= 1", stats.Redirects)
	}
	if !v.Intrusion || !vClean.Intrusion {
		t.Fatalf("intrusion verdicts: migrated %v, clean %v, want both true", v.Intrusion, vClean.Intrusion)
	}
	if !reflect.DeepEqual(v.Alerts, vClean.Alerts) {
		t.Fatalf("alerts diverge across the handoff:\nmigrated: %+v\nclean:    %+v", v.Alerts, vClean.Alerts)
	}
	if !reflect.DeepEqual(v.Channels, vClean.Channels) {
		t.Fatalf("channel states diverge across the handoff:\nmigrated: %+v\nclean:    %+v", v.Channels, vClean.Channels)
	}
}

// killableProxy fronts a peer's listener and can die on command after a set
// number of client-to-server bytes — the in-process stand-in for a peer
// killed without draining, at a deterministic point mid-stream.
type killableProxy struct {
	l         net.Listener
	target    string
	killAfter int64

	mu     sync.Mutex
	conns  []net.Conn
	killed bool

	forwarded atomic.Int64
}

func startKillableProxy(t *testing.T, target string, killAfter int64) *killableProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killableProxy{l: l, target: target, killAfter: killAfter}
	go p.acceptLoop()
	t.Cleanup(p.kill)
	return p
}

func (p *killableProxy) addr() string { return p.l.Addr().String() }

func (p *killableProxy) acceptLoop() {
	for {
		c, err := p.l.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close() //nolint:errcheck // refusing the proxied conn
			continue
		}
		p.mu.Lock()
		if p.killed {
			p.mu.Unlock()
			c.Close()  //nolint:errcheck // already dead
			up.Close() //nolint:errcheck // already dead
			continue
		}
		p.conns = append(p.conns, c, up)
		p.mu.Unlock()
		go p.pipe(up, c, true)  // client -> server, counted
		go p.pipe(c, up, false) // server -> client
	}
}

func (p *killableProxy) pipe(dst, src net.Conn, counted bool) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			if counted && p.forwarded.Add(int64(n)) >= p.killAfter {
				p.kill()
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *killableProxy) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed {
		return
	}
	p.killed = true
	p.l.Close() //nolint:errcheck // killing on purpose
	for _, c := range p.conns {
		c.Close() //nolint:errcheck // killing on purpose
	}
}

// TestClusterPeerDeathFailover: a peer dies mid-stream without draining.
// The client must end up on the survivor — never wedged — by marking the
// dead peer, downgrading its resume to a fresh Hello when the survivor
// answers the typed no-state rejection, and restarting the stream from
// sample zero. The verdict is still correct; StateLost records the
// degradation. The survivor's health probes shed redirects toward the dead
// peer within a probe period, unblocking the client's recomputed ownership.
func TestClusterPeerDeathFailover(t *testing.T) {
	fx := fixture(t)
	var version string
	mkPool := func() *SharedPool {
		pool := NewSharedPool(nil)
		v, err := pool.Register(fixtureModel(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		version = v
		return pool
	}

	// Peer 0 sits behind a proxy that dies after ~20 KB of upstream data
	// (~800 of the 2000 samples); peer 1 is reached directly.
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy := startKillableProxy(t, l0.Addr().String(), 20<<10)
	peers := []string{proxy.addr(), l1.Addr().String()}
	bootFleetPeer(t, l0, peers, 0, mkPool(), 0)
	p1 := bootFleetPeer(t, l1, peers, 1, mkPool(), 100*time.Millisecond)

	id := sessionOwnedBy(t, 0, 2)
	rng := rand.New(rand.NewSource(77))
	runs := []*sigproc.Signal{perturbed(rng, fx.refs[0]), perturbed(rng, fx.refs[1])}
	stats := &ReplayStats{}
	v, err := Replay("", Hello{SessionID: id, Priority: 5, Channels: fx.specs, Model: version}, runs, ReplayOptions{
		FrameSamples: 50, Peers: peers, MaxDials: 16, MaxRedirects: 12,
		DialBackoff: 10 * time.Millisecond, Stats: stats,
	})
	if err != nil {
		t.Fatalf("replay across peer death: %v", err)
	}
	if v.Intrusion {
		t.Errorf("benign run flagged as intrusion after failover: %+v", v)
	}
	if stats.StateLost != 1 {
		t.Errorf("StateLost = %d, want 1 (resume downgraded to fresh hello)", stats.StateLost)
	}
	if stats.Dials < 2 {
		t.Errorf("Dials = %d, want >= 2 across the failover", stats.Dials)
	}
	if stats.MaxReconnectPause <= 0 {
		t.Error("MaxReconnectPause not recorded across the failover")
	}
	if p1.cluster.Alive(0) {
		t.Error("survivor still reports the dead peer alive after its probes failed")
	}
}

// TestReplayRedirectLoopDistinctError: two miswired peers that bounce a
// session at each other must exhaust the redirect budget with its own
// distinct error, not burn the dial budget — the two limits are separate.
func TestReplayRedirectLoopDistinctError(t *testing.T) {
	fx := fixture(t)
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0, addr1 := l0.Addr().String(), l1.Addr().String()
	mkPool := func() *SharedPool {
		pool := NewSharedPool(nil)
		if _, err := pool.Register(fixtureModel(t, 1)); err != nil {
			t.Fatal(err)
		}
		return pool
	}
	// Both processes claim index 0 of memberships that mirror each other — a
	// misconfigured fleet where each believes the other owns the session.
	bootFleetPeer(t, l0, []string{addr0, addr1}, 0, mkPool(), 0)
	bootFleetPeer(t, l1, []string{addr1, addr0}, 0, mkPool(), 0)

	id := sessionOwnedBy(t, 1, 2)
	rng := rand.New(rand.NewSource(13))
	runs := []*sigproc.Signal{perturbed(rng, fx.refs[0]), perturbed(rng, fx.refs[1])}
	_, err = Replay(addr0, Hello{SessionID: id, Priority: 5, Channels: fx.specs}, runs,
		ReplayOptions{FrameSamples: 100, MaxRedirects: 3, MaxDials: 10})
	if err == nil {
		t.Fatal("replay through a redirect loop succeeded")
	}
	if !strings.Contains(err.Error(), "redirect loop") {
		t.Errorf("redirect loop error = %q, want it to name the loop", err)
	}
	if strings.Contains(err.Error(), "dial budget") {
		t.Errorf("redirect loop misreported as dial budget exhaustion: %q", err)
	}
}

// TestTenantGossipQuota pins the healthy-mesh over-admission bound from
// DESIGN.md §17: with quota Q and gossiped remote usage current, a peer
// admits at most Q minus the fleet-wide count — and a dead peer's gossiped
// sessions stop counting the moment it is marked down.
func TestTenantGossipQuota(t *testing.T) {
	a := NewTenantTable(TenantQuota{MaxSessions: 4})
	b := NewTenantTable(TenantQuota{MaxSessions: 4})
	for i := 0; i < 3; i++ {
		tn, reject := a.reserve("plant-1")
		if reject != "" {
			t.Fatalf("admit %d on a: %s", i, reject)
		}
		a.commit(tn)
	}

	usage := a.Usage()
	if len(usage) != 1 || usage[0].Tenant != "plant-1" || usage[0].Sessions != 3 {
		t.Fatalf("a.Usage() = %+v, want plant-1: 3", usage)
	}
	b.SetRemote(0, usage)

	// 3 of 4 slots taken fleet-wide: exactly one local admission left on b.
	tn, reject := b.reserve("plant-1")
	if reject != "" {
		t.Fatalf("b should admit the 4th fleet-wide session: %s", reject)
	}
	b.commit(tn)
	if _, reject := b.reserve("plant-1"); !strings.Contains(reject, "quota") {
		t.Fatalf("b admitted a 5th fleet-wide session (reject=%q)", reject)
	}

	// No echo: b's usage reports only its local session, not what peer 0
	// gossiped in — otherwise counts would inflate with every round trip.
	busage := b.Usage()
	if len(busage) != 1 || busage[0].Sessions != 1 {
		t.Fatalf("b.Usage() = %+v, want plant-1: 1 (local only)", busage)
	}

	// Peer 0 dies: its contribution clears and b can admit again (its
	// clients are about to fail over here).
	b.SetRemote(0, nil)
	tn, reject = b.reserve("plant-1")
	if reject != "" {
		t.Fatalf("b still counting dead peer's sessions: %s", reject)
	}
	b.release(tn, false)
}

// TestHandoffRefusedByDrainingPeer: a handoff landing on a peer that is
// itself draining must be refused (and counted as failed), never silently
// dropped — the sender keeps the session and drains it locally.
func TestHandoffRefusedByDrainingPeer(t *testing.T) {
	fx := fixture(t)
	var version string
	fleet := startFleetPeers(t, 2, func(int) *SharedPool {
		pool := NewSharedPool(nil)
		v, err := pool.Register(fixtureModel(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		version = v
		return pool
	})

	id := sessionOwnedBy(t, 0, 2)
	c, err := Dial(fleet[0].addr, Hello{SessionID: id, Priority: 5, Channels: fx.specs, Model: version}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // test teardown

	// Latch the successor into draining first, then drain peer 0.
	fleet[1].cluster.draining.Store(true)
	migrated, failed := fleet[0].cluster.HandoffAll(context.Background())
	if migrated != 0 || failed != 1 {
		t.Fatalf("HandoffAll toward draining successor = (%d, %d), want (0, 1)", migrated, failed)
	}
	// The refused session is still here, drainable the ordinary way.
	if got := fleet[0].srv.SessionCount(); got != 1 {
		t.Fatalf("refused session dropped: SessionCount = %d, want 1", got)
	}
}

// drainBatchIDs returns n session ids that peer 0 of a two-peer fleet owns,
// sorted as a drain batches them.
func drainBatchIDs(n int) []string {
	var ids []string
	for i := 0; len(ids) < n; i++ {
		if id := fmt.Sprintf("batch-%d", i); OwnerOf(id, 2, nil) == 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// failCaptureSink is a stateful sink whose capture always fails, so a drain
// exports its session from the journal instead.
type failCaptureSink struct{ countSink }

func (*failCaptureSink) CaptureState() ([]byte, error) { return nil, errors.New("capture refused") }
func (*failCaptureSink) RestoreState([]byte) error     { return nil }

// failCaptureFactory gives session fail a failCaptureSink and every other
// session a plain one.
type failCaptureFactory struct{ fail string }

func (f failCaptureFactory) Acquire(hello *Frame) (Sink, error) {
	if hello.SessionID == f.fail {
		return &failCaptureSink{}, nil
	}
	return &countSink{}, nil
}

func (failCaptureFactory) Release(Sink) {}

// TestHandoffOversizeFallbackMigratesWithoutState: a session whose live
// capture fails migrates from its journal image. When that image's state
// fits the journal but not one Handoff frame, the session migrates without
// its resume point, and the rest of the batch still goes out over the same
// connection.
func TestHandoffOversizeFallbackMigratesWithoutState(t *testing.T) {
	ids := drainBatchIDs(2) // the batch runs in id order: the oversize image goes first

	st := startStubSuccessor(t)
	close(st.release) // ack every handoff as it arrives
	j, _ := openTestJournal(t, t.TempDir(), JournalConfig{})
	t.Cleanup(func() { j.Close() })
	srv, cl, serveErr := startDrainPeer(t, failCaptureFactory{fail: ids[0]}, Config{Journal: j}, st.addr)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	for _, id := range ids {
		c, err := Dial(cl.Self(), oneChanHello(id, 1), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	// Under the journal's state cap, so the journal keeps it, but too big
	// for any Handoff frame to carry.
	j.Snapshot(ids[0], []uint64{10}, make([]byte, MaxFramePayload-16))

	if migrated, failed := cl.HandoffAll(context.Background()); migrated != 2 || failed != 0 {
		t.Fatalf("HandoffAll = (%d migrated, %d failed), want (2, 0)", migrated, failed)
	}
	for _, id := range ids {
		if got := <-st.received; got != id {
			t.Fatalf("successor received %s, want %s", got, id)
		}
	}
}

// TestHandoffUnencodableImageRefusesOnlyItself: an image that cannot be
// encoded even without its state is refused before it touches the
// connection, and the rest of the batch still migrates over it.
func TestHandoffUnencodableImageRefusesOnlyItself(t *testing.T) {
	ids := drainBatchIDs(2)
	st := startStubSuccessor(t)
	close(st.release) // ack every handoff as it arrives
	srv, cl, serveErr := startDrainPeer(t, &countFactory{}, Config{}, st.addr)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	for _, id := range ids {
		c, err := Dial(cl.Self(), oneChanHello(id, 1), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	exported := srv.exportSessions(5 * time.Second)
	if len(exported) != 2 {
		t.Fatalf("exported %d sessions, want 2", len(exported))
	}
	bad := *exported[0].Frame
	bad.Priority = 256 // wider than its one-byte field
	exported[0].Frame = &bad
	if acked := cl.pushBatch(context.Background(), 1, exported); acked != 1 {
		t.Fatalf("pushBatch acked %d, want 1", acked)
	}
	if got := <-st.received; got != ids[1] {
		t.Fatalf("successor received %s, want %s", got, ids[1])
	}
	if ph := exported[0].sess.current(); ph != attached {
		t.Fatalf("unencodable session is in phase %d, want attached (refused, still served here)", ph)
	}
}
