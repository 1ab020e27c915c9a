package ingest

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// TenantQuota bounds one tenant's footprint on a server. The zero value is
// unlimited, so single-tenant deployments pay nothing for the machinery.
type TenantQuota struct {
	// MaxSessions caps a tenant's concurrent live sessions (attached or
	// retained), admission reservations included (0 = unlimited).
	MaxSessions int
	// MaxQueuedFrames caps a tenant's aggregate queued frames: once a
	// tenant's sessions hold this many frames in their queues, new sessions
	// from that tenant are rejected at admission (0 = unlimited). Existing
	// sessions are never cut by this quota — backpressure and the global
	// shed watermark already govern them.
	MaxQueuedFrames int
}

func (q TenantQuota) unlimited() bool { return q.MaxSessions <= 0 && q.MaxQueuedFrames <= 0 }

// tenant is one tenant's live accounting. sessions and pending are guarded
// by the owning table's mutex; depth is written on the session hot path and
// therefore atomic.
type tenant struct {
	id    string
	quota TenantQuota

	sessions int // admitted live sessions
	pending  int // admission reservations in flight (slot held, not yet admitted)
	depth    atomic.Int64
}

// TenantTable tracks per-tenant admission state; it is safe for concurrent
// use. Its mutex nests strictly inside Server.mu — the table never calls
// back into a server.
type TenantTable struct {
	mu      sync.Mutex
	def     TenantQuota
	quotas  map[string]TenantQuota
	tenants map[string]*tenant
	// remote holds each cluster peer's gossiped per-tenant live session
	// counts (peer id → tenant id → sessions). Best-effort: a count is as
	// stale as the last probe that carried it. See reserve for the
	// over-admission bound this buys.
	remote   map[int]map[string]int
	rejected atomic.Int64
}

// NewTenantTable builds a table whose tenants default to def. Per-tenant
// overrides come from SetQuota.
func NewTenantTable(def TenantQuota) *TenantTable {
	return &TenantTable{
		def:     def,
		quotas:  map[string]TenantQuota{},
		tenants: map[string]*tenant{},
		remote:  map[int]map[string]int{},
	}
}

// SetQuota overrides the quota for one tenant id. It applies to subsequent
// admissions; sessions already admitted are unaffected.
func (t *TenantTable) SetQuota(id string, q TenantQuota) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.quotas[id] = q
	if tn, ok := t.tenants[id]; ok {
		tn.quota = q
	}
}

// Sessions reports a tenant's current live session count (reservations not
// included).
func (t *TenantTable) Sessions(id string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tn, ok := t.tenants[id]; ok {
		return tn.sessions
	}
	return 0
}

// QueuedFrames reports a tenant's aggregate queued-frame depth.
func (t *TenantTable) QueuedFrames(id string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tn, ok := t.tenants[id]; ok {
		return int(tn.depth.Load())
	}
	return 0
}

// Rejected reports how many admissions the table has refused over quota.
func (t *TenantTable) Rejected() int64 { return t.rejected.Load() }

// Usage snapshots this process's own per-tenant live session counts — the
// payload a cluster peer gossips on its health probes. Remote contributions
// are deliberately excluded so peers never echo each other's counts back
// and inflate the fleet view.
func (t *TenantTable) Usage() []TenantUsage {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TenantUsage, 0, len(t.tenants))
	for id, tn := range t.tenants {
		if tn.sessions > 0 {
			out = append(out, TenantUsage{Tenant: id, Sessions: tn.sessions})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Tenant < out[b].Tenant })
	return out
}

// SetRemote replaces one peer's gossiped tenant usage; nil (or empty) usage
// clears that peer's contribution — a dead or drained peer's sessions are
// about to fail over here and must not be double-counted against quotas.
func (t *TenantTable) SetRemote(peer int, usage []TenantUsage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(usage) == 0 {
		delete(t.remote, peer)
		return
	}
	m := make(map[string]int, len(usage))
	for _, u := range usage {
		if u.Sessions > 0 {
			m[u.Tenant] = u.Sessions
		}
	}
	t.remote[peer] = m
}

// remoteSessionsLocked sums the gossiped live session counts for one tenant
// across all peers. Callers hold t.mu.
func (t *TenantTable) remoteSessionsLocked(id string) int {
	n := 0
	for _, m := range t.remote {
		n += m[id]
	}
	return n
}

func (t *TenantTable) quotaFor(id string) TenantQuota {
	if q, ok := t.quotas[id]; ok {
		return q
	}
	return t.def
}

// reserve claims an admission slot for id, returning the tenant handle or a
// rejection message. A successful reservation MUST be resolved by exactly
// one commit (admission succeeded) or one release with admitted=false
// (admission failed) — the slot counts against MaxSessions either way, which
// is what makes a concurrent Hello burst unable to over-admit past the
// quota while the factory acquire runs outside the server lock.
func (t *TenantTable) reserve(id string) (*tenant, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tn, ok := t.tenants[id]
	if !ok {
		tn = &tenant{id: id, quota: t.quotaFor(id)}
		t.tenants[id] = tn
	}
	if q := tn.quota; !q.unlimited() {
		// MaxSessions counts local sessions, local reservations, AND the
		// gossiped remote counts, so the quota holds approximately
		// fleet-wide. The remote view is bounded-stale: with P peers of
		// quota Q, the worst case with no gossip at all (mesh fully
		// partitioned) is P×Q fleet-wide; with a healthy mesh the bound is
		// Q plus whatever every peer admits inside one gossip period,
		// because each admission is visible to the whole fleet one probe
		// later. TestTenantGossipQuota pins the healthy-mesh bound.
		if q.MaxSessions > 0 && tn.sessions+tn.pending+t.remoteSessionsLocked(id) >= q.MaxSessions {
			t.rejected.Add(1)
			return nil, fmt.Sprintf("tenant %q over session quota (%d)", id, q.MaxSessions)
		}
		if q.MaxQueuedFrames > 0 && int(tn.depth.Load()) >= q.MaxQueuedFrames {
			t.rejected.Add(1)
			return nil, fmt.Sprintf("tenant %q over queued-frame quota (%d)", id, q.MaxQueuedFrames)
		}
	}
	tn.pending++
	return tn, ""
}

// commit converts a reservation into an admitted session.
func (t *TenantTable) commit(tn *tenant) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tn.pending--
	tn.sessions++
}

// release returns a reservation (admitted=false) or an admitted session
// (admitted=true) to the table, garbage-collecting idle tenants so a churn
// of one-shot tenant ids cannot grow the table without bound.
func (t *TenantTable) release(tn *tenant, admitted bool) {
	if tn == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if admitted {
		tn.sessions--
	} else {
		tn.pending--
	}
	if tn.sessions == 0 && tn.pending == 0 && tn.depth.Load() == 0 {
		if cur, ok := t.tenants[tn.id]; ok && cur == tn {
			delete(t.tenants, tn.id)
		}
	}
}
