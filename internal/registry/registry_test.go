package registry

import (
	"math/rand"
	"testing"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/sigproc"
)

func testModel(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	ref := sigproc.New(100, 1, 500)
	for i := range ref.Data[0] {
		ref.Data[0][i] = rng.NormFloat64()
	}
	return &Model{
		K: 1,
		Channels: []ChannelModel{{
			Name:       "acc",
			Reference:  ref,
			Params:     dwm.Params{TWin: 0.5, THop: 0.25, TExt: 0.2, TSigma: 0.1, Eta: 0.1},
			Thresholds: core.Thresholds{CC: 10, HC: 5, VC: 0.5},
		}},
	}
}

func TestModelVersionIsContentAddressed(t *testing.T) {
	a, b := testModel(1), testModel(1)
	va, err := a.Version()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Version()
	if err != nil {
		t.Fatal(err)
	}
	if va != vb {
		t.Fatalf("identical models have versions %s and %s", va, vb)
	}
	if len(va) != 12 {
		t.Fatalf("version %q: want 12 hex digits", va)
	}
	b.Channels[0].Thresholds.VC += 1e-9
	vb, err = b.Version()
	if err != nil {
		t.Fatal(err)
	}
	if va == vb {
		t.Fatal("threshold change did not change the version")
	}
	c := testModel(1)
	c.Channels[0].Reference.Data[0][99] += 1e-9
	vc, err := c.Version()
	if err != nil {
		t.Fatal(err)
	}
	if vc == va {
		t.Fatal("reference change did not change the version")
	}
}

func TestModelMonitorAndValidate(t *testing.T) {
	m := testModel(2)
	fm, err := m.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Push([]*sigproc.Signal{m.Channels[0].Reference.Slice(0, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := (&Model{}).Validate(); err == nil {
		t.Error("empty model should not validate")
	}
	if err := (&Model{Channels: []ChannelModel{{Name: "x"}}}).Validate(); err == nil {
		t.Error("nil reference should not validate")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(3)
	v, err := s.Put(m)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent re-put.
	v2, err := s.Put(m)
	if err != nil || v2 != v {
		t.Fatalf("re-put: %s, %v", v2, err)
	}
	got, ok, err := s.Get(v)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	gv, err := got.Version()
	if err != nil {
		t.Fatal(err)
	}
	if gv != v {
		t.Fatalf("loaded model hashes to %s, stored as %s", gv, v)
	}
	if _, ok, err := s.Get("no-such-version"); ok || err != nil {
		t.Fatalf("missing version: ok=%v err=%v", ok, err)
	}
}

func TestDeploymentWalksShadowCanaryActive(t *testing.T) {
	var events []string
	d := NewDeployment(DeploymentConfig{ShadowSessions: 2, CanarySessions: 2}, "v-boot")
	d.OnCanary = func(v string) { events = append(events, "canary:"+v) }
	d.OnPromote = func(v string) { events = append(events, "promote:"+v) }
	d.OnRetire = func(v, reason string) { events = append(events, "retire:"+v) }

	if st := d.RecordSession(true); st != StateNone {
		t.Fatalf("session with no candidate: %v", st)
	}
	if err := d.Propose(""); err == nil {
		t.Error("empty version: want error")
	}
	if err := d.Propose("v-boot"); err == nil {
		t.Error("re-proposing active: want error")
	}
	if err := d.Propose("v-cand"); err != nil {
		t.Fatal(err)
	}
	if err := d.Propose("v-other"); err == nil {
		t.Error("second candidate in flight: want error")
	}
	if v, st := d.Candidate(); v != "v-cand" || st != StateShadow {
		t.Fatalf("candidate = %s/%v", v, st)
	}
	if st := d.RecordSession(true); st != StateShadow {
		t.Fatalf("after 1 shadow session: %v", st)
	}
	if st := d.RecordSession(true); st != StateCanary {
		t.Fatalf("after 2 shadow sessions: %v", st)
	}
	if st := d.RecordSession(true); st != StateCanary {
		t.Fatalf("after 1 canary session: %v", st)
	}
	if st := d.RecordSession(true); st != StateActive {
		t.Fatalf("after 2 canary sessions: %v", st)
	}
	if d.Active() != "v-cand" {
		t.Fatalf("active = %s", d.Active())
	}
	if d.Generation() != 2 {
		t.Fatalf("generation = %d", d.Generation())
	}
	if v, st := d.Candidate(); v != "" || st != StateNone {
		t.Fatalf("candidate after promotion = %s/%v", v, st)
	}
	want := []string{"canary:v-cand", "promote:v-cand"}
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("events = %v, want %v", events, want)
	}
	// A new candidate can now be proposed.
	if err := d.Propose("v-next"); err != nil {
		t.Fatal(err)
	}
}

func TestDeploymentRollsBackOnDisagreement(t *testing.T) {
	var retired, reason string
	d := NewDeployment(DeploymentConfig{ShadowSessions: 1, CanarySessions: 1, DisagreementBudget: 1}, "v1")
	d.OnRetire = func(v, r string) { retired, reason = v, r }
	if err := d.Propose("v2"); err != nil {
		t.Fatal(err)
	}
	// First disagreement fits the budget: candidate stays, session quota
	// does not advance.
	if st := d.RecordSession(false); st != StateShadow {
		t.Fatalf("within budget: %v", st)
	}
	if st := d.RecordSession(false); st != StateRetired {
		t.Fatalf("over budget: %v", st)
	}
	if retired != "v2" || reason == "" {
		t.Fatalf("retire hook: %q, %q", retired, reason)
	}
	if d.Active() != "v1" || d.Generation() != 1 {
		t.Fatalf("rollback kept active=%s gen=%d", d.Active(), d.Generation())
	}
	if v, st := d.Candidate(); v != "" || st != StateNone {
		t.Fatalf("candidate after retire = %s/%v", v, st)
	}
	// Disagreement during canary also rolls back.
	d = NewDeployment(DeploymentConfig{ShadowSessions: 1, CanarySessions: 5}, "v1")
	if err := d.Propose("v2"); err != nil {
		t.Fatal(err)
	}
	if st := d.RecordSession(true); st != StateCanary {
		t.Fatal("should reach canary")
	}
	if st := d.RecordSession(false); st != StateRetired {
		t.Fatal("canary disagreement should retire with zero budget")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateNone: "none", StateShadow: "shadow", StateCanary: "canary",
		StateActive: "active", StateRetired: "retired",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), str)
		}
	}
	if State(99).String() != "State(99)" {
		t.Error("unknown state string")
	}
}
