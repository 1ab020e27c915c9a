package ingest

import (
	"context"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"nsync/internal/sigproc"
)

// TestCrashRecoveryResumesSession is the end-to-end crash-recovery contract,
// in process: a session streams against a journaling server, the journal's
// write stream dies mid-print (the kill -9 stand-in), a second server boots
// from the journal directory, recovers the session as detached, and the
// client resumes through the ordinary resume path. The final verdict must
// match a never-interrupted run of the same signals, alert for alert.
func TestCrashRecoveryResumesSession(t *testing.T) {
	fx := fixture(t)
	pool := NewSharedPool(nil)
	version, err := pool.Register(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j1, rec := openTestJournal(t, dir, JournalConfig{})
	if len(rec) != 0 {
		t.Fatalf("fresh journal recovered %d sessions", len(rec))
	}

	cfg := Config{
		Factory: pool, Journal: j1, SnapshotEveryFrames: 4,
		ReadTimeout: 20 * time.Second, Retention: time.Minute, Logf: t.Logf,
	}
	srv1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve1 := make(chan error, 1)
	go func() { serve1 <- srv1.Serve(l1) }()

	rng := rand.New(rand.NewSource(55))
	runs := []*sigproc.Signal{perturbed(rng, fx.refs[0]), attacked(rng, fx.refs[1])}
	if !fx.inProcessVerdict(t, 1, runs) {
		t.Fatal("fixture: malicious run not detected in process")
	}

	// Stream the first 800 of 2000 samples, then crash.
	const frameSamples = 50
	c, err := Dial(l1.Addr().String(), fx.hello("crashy", 5), 5*time.Second)
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
	waitFor(t, 5*time.Second, func() bool { return j1.Snapshots() > 0 })

	// The crash instant: the journal's write stream dies with frames still
	// in flight. Everything after this line (the client teardown, the old
	// server's drain, its Finish records) must leave no trace on disk.
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close() //nolint:errcheck // simulated crash teardown
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serve1; err != nil {
		t.Fatal(err)
	}

	// Boot a second server from the journal directory.
	j2, rec2 := openTestJournal(t, dir, JournalConfig{})
	defer j2.Close() //nolint:errcheck // test teardown
	if len(rec2) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(rec2))
	}
	rs := rec2[0]
	if rs.SessionID != "crashy" || rs.Tenant != "" || rs.Model != version {
		t.Fatalf("recovered identity %+v, want crashy pinned to %s", rs, version)
	}
	if !reflect.DeepEqual(rs.Channels, fx.specs) {
		t.Fatalf("recovered channel layout %+v, want %+v", rs.Channels, fx.specs)
	}
	if len(rs.Blob) == 0 {
		t.Fatal("no monitor state journaled")
	}
	if rs.Committed[0] == 0 && rs.Committed[1] == 0 {
		t.Fatal("durable snapshot has a zero resume point")
	}

	cfg2 := cfg
	cfg2.Journal = j2
	srv2, err := NewServer(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if n := srv2.Recover(rec2, pool); n != 1 {
		t.Fatalf("Recover() = %d, want 1", n)
	}
	if got := srv2.SessionCount(); got != 1 {
		t.Fatalf("SessionCount() = %d after recovery, want 1", got)
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve2 := make(chan error, 1)
	go func() { serve2 <- srv2.Serve(l2) }()

	// The reconnect's HelloAck must report the rolled-back resume point —
	// the client learns where to pick up through the existing protocol.
	rc, err := Dial(l2.Addr().String(), fx.hello("crashy", 5), 5*time.Second)
	if err != nil {
		t.Fatalf("reconnect after recovery: %v", err)
	}
	if !reflect.DeepEqual(rc.Committed, rs.Committed) {
		t.Fatalf("HelloAck committed %v, want journaled %v", rc.Committed, rs.Committed)
	}
	rc.Close() //nolint:errcheck // probing connection only

	// Resume for real: a full replay under the same id re-sends everything;
	// the server skips what it already committed and absorbs the overlap.
	v, err := Replay(l2.Addr().String(), fx.hello("crashy", 5), runs, ReplayOptions{FrameSamples: frameSamples})
	if err != nil {
		t.Fatalf("resumed replay: %v", err)
	}
	// Ground truth through the same wire: a clean, never-crashed session.
	vClean, err := Replay(l2.Addr().String(), fx.hello("clean", 5), runs, ReplayOptions{FrameSamples: frameSamples})
	if err != nil {
		t.Fatalf("clean replay: %v", err)
	}
	if !v.Intrusion || !vClean.Intrusion {
		t.Fatalf("intrusion verdicts: recovered %v, clean %v, want both true", v.Intrusion, vClean.Intrusion)
	}
	if !reflect.DeepEqual(v.Alerts, vClean.Alerts) {
		t.Fatalf("alerts diverge across the crash:\nrecovered: %+v\nclean:     %+v", v.Alerts, vClean.Alerts)
	}
	if !reflect.DeepEqual(v.Channels, vClean.Channels) {
		t.Fatalf("channel states diverge across the crash:\nrecovered: %+v\nclean:     %+v", v.Channels, vClean.Channels)
	}

	// Both sessions finished: the journal must have released them, so a
	// third boot recovers nothing.
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serve2; err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, rec3 := openTestJournal(t, dir, JournalConfig{})
	defer j3.Close() //nolint:errcheck // test teardown
	if len(rec3) != 0 {
		t.Fatalf("finished sessions survived in the journal: %+v", rec3)
	}
}

// TestRecoverSkipsUnrestorableSessions: a journaled session whose model no
// longer resolves must not block boot — it is skipped, finished in the
// journal, and everything else recovers.
func TestRecoverSkipsUnrestorableSessions(t *testing.T) {
	fx := fixture(t)
	pool := NewSharedPool(nil)
	version, err := pool.Register(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, JournalConfig{})
	j.Admit("good", "", version, 1, fx.specs)
	j.Admit("gone-model", "", "feedfacefeed", 1, fx.specs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec := openTestJournal(t, dir, JournalConfig{})
	defer j2.Close() //nolint:errcheck // test teardown
	if len(rec) != 2 {
		t.Fatalf("recovered %d journaled sessions, want 2", len(rec))
	}
	srv, err := NewServer(Config{Factory: pool, Journal: j2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Recover(rec, pool); n != 1 {
		t.Fatalf("Recover() = %d, want 1 (bad model skipped)", n)
	}
	if got := srv.SessionCount(); got != 1 {
		t.Fatalf("SessionCount() = %d, want 1", got)
	}
	// The skipped session must be finished in the journal, not recovered
	// again forever.
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, rec3 := openTestJournal(t, dir, JournalConfig{})
	defer j3.Close() //nolint:errcheck // test teardown
	for _, rs := range rec3 {
		if rs.SessionID == "gone-model" {
			t.Fatal("unrestorable session still journaled after skip")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRestoreFailureReleasesReservation is the regression pin for
// the recovery rollback path: a journaled session whose restore fails (its
// model no longer resolves) must give back its tenant reservation
// immediately — not hold the slot until retention expiry — so a live
// admission for the same tenant succeeds right after boot.
func TestRecoverRestoreFailureReleasesReservation(t *testing.T) {
	fx := fixture(t)
	pool := NewSharedPool(nil)
	tenants := NewTenantTable(TenantQuota{MaxSessions: 1})
	srv, err := NewServer(Config{
		Factory: pool, Tenants: tenants, Logf: t.Logf,
		// A long retention makes the failure mode visible: a leaked
		// reservation would block the tenant for an hour, not a blink.
		Retention: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := &Frame{
		Type: FrameHandoff, SessionID: "victim", Tenant: "plant-1", Model: "feedfacefeed",
		Priority: 3, Channels: fx.specs, Committed: []uint64{100, 100},
	}
	if n := srv.Recover([]*Frame{rs}, pool); n != 0 {
		t.Fatalf("Recover() = %d, want 0 (model cannot restore)", n)
	}
	// The tenant's single quota slot must be free again, immediately.
	tn, reject := tenants.reserve("plant-1")
	if reject != "" {
		t.Fatalf("reservation leaked by failed restore: %s", reject)
	}
	tenants.release(tn, false)
	if got := srv.SessionCount(); got != 0 {
		t.Fatalf("SessionCount() = %d after failed recovery, want 0", got)
	}
}

// TestRecoverStatelessImageStartsAtSampleZero: a journal snapshot without
// detector state (its capture failed, or outgrew the state cap) still
// records commit points. Recovery must not resume there: DWM aligns the
// observed signal from the start of the print, so a fresh detector fed only
// the tail judges a misaligned signal. The session starts at sample 0
// instead, its HelloAck says so, and the client re-streams the print into
// the fresh detector: the verdicts match a never-faulted run's.
func TestRecoverStatelessImageStartsAtSampleZero(t *testing.T) {
	fx := fixture(t)
	pool := NewSharedPool(nil)
	version, err := pool.Register(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	prints := map[string][]*sigproc.Signal{
		"benign": {perturbed(rng, fx.refs[0]), perturbed(rng, fx.refs[1])},
		"attack": {perturbed(rng, fx.refs[0]), attacked(rng, fx.refs[1])},
	}
	if fx.inProcessVerdict(t, 1, prints["benign"]) || !fx.inProcessVerdict(t, 1, prints["attack"]) {
		t.Fatal("fixture: in-process verdicts are not (benign, attack)")
	}

	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, JournalConfig{})
	for id := range prints {
		j.Admit(id, "", version, 5, fx.specs)
		j.Snapshot(id, []uint64{1200, 1200}, nil) // 1,200 of 2,000 samples, no state
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openTestJournal(t, dir, JournalConfig{})
	defer j2.Close() //nolint:errcheck // test teardown
	srv, err := NewServer(Config{
		Factory: pool, Journal: j2, ReadTimeout: 20 * time.Second, Retention: time.Minute, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Recover(rec, pool); n != 2 {
		t.Fatalf("Recover() = %d, want 2", n)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
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

	c, err := Dial(l.Addr().String(), fx.hello("benign", 5), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close() //nolint:errcheck // probing connection only
	if !reflect.DeepEqual(c.Committed, []uint64{0, 0}) {
		t.Errorf("HelloAck committed %v, want [0 0]: without detector state the session starts at sample 0", c.Committed)
	}
	for _, id := range []string{"benign", "attack"} {
		v, err := Replay(l.Addr().String(), fx.hello(id, 5), prints[id], ReplayOptions{FrameSamples: 50})
		if err != nil {
			t.Fatalf("%s: replay: %v", id, err)
		}
		if want := id == "attack"; v.Intrusion != want {
			t.Errorf("%s: recovered session verdict intrusion=%v, never-faulted verdict %v", id, v.Intrusion, want)
		}
	}
}
