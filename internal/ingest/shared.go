package ingest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"nsync/internal/registry"
)

// SharedPool is a SinkFactory over a registry of trained models: N sessions
// printing the same part share one content-addressed model — one set of
// reference signals in memory — while each session still gets its own
// monitor (monitors hold per-stream state and cannot be shared). Entries
// are refcounted: a model loaded on demand from the backing store is
// evicted when its last session releases, so a fleet cycling through many
// part models does not accumulate every reference it ever served; models
// installed with Register are pinned and survive idle periods.
//
// A session selects its model by content address in Hello.Model; an empty
// address means the pool's default. Each entry recycles its sinks: Release
// resets the monitor and parks the sink on a bounded idle list, so steady
// state builds no new monitors or push scratch. While a candidate model is
// set (SetShadow), new sessions are also teed into it.
type SharedPool struct {
	store *registry.Store // nil: serve only Registered models

	mu      sync.Mutex
	def     string // default version for Hellos with no Model
	entries map[string]*sharedEntry

	// shadow is the candidate entry new sessions are teed into, or nil; the
	// slot holds one reference on it. serve and onVerdict go with it.
	shadow    *sharedEntry
	serve     bool
	onVerdict func(primary, shadow *Verdict)
}

// maxIdlePerModel bounds how many reset sinks each entry keeps parked.
const maxIdlePerModel = 4

// sharedEntry is one resident model and its recycled sinks. refs counts
// live sinks, plus one while the entry is the shadow candidate; pinned
// entries ignore refs for eviction.
type sharedEntry struct {
	version string
	model   *registry.Model
	specs   []ChannelSpec
	pinned  bool

	refs int // guarded by the pool's mutex
	idle []*sharedSink
}

// NewSharedPool builds an empty pool backed by store (which may be nil).
func NewSharedPool(store *registry.Store) *SharedPool {
	return &SharedPool{store: store, entries: map[string]*sharedEntry{}}
}

// NewSwapFactory returns pool, which tees candidate models itself (see
// SetShadow). It remains for existing callers; new code uses the pool.
func NewSwapFactory(pool *SharedPool) *SharedPool { return pool }

// Register makes a model resident and pinned, returning its content
// address. The first registered model becomes the pool's default.
func (p *SharedPool) Register(m *registry.Model) (string, error) {
	if err := m.Validate(); err != nil {
		return "", err
	}
	v, err := m.Version()
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[v]; ok {
		e.pinned = true
	} else {
		p.entries[v] = newSharedEntry(v, m, true)
	}
	if p.def == "" {
		p.def = v
	}
	return v, nil
}

// SetDefault selects the version Hellos with an empty Model field get. The
// version must be resident or resolvable from the backing store at
// admission time.
func (p *SharedPool) SetDefault(version string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.def = version
}

// Default reports the current default version.
func (p *SharedPool) Default() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.def
}

// Resident reports how many models are currently resident and how many
// references they hold: live sinks, plus the shadow slot's (see Refs).
func (p *SharedPool) Resident() (models, refs int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		refs += e.refs
	}
	return len(p.entries), refs
}

// Has reports whether the pool can resolve version without outside help —
// resident in memory, or present in the backing store. A handoff receiver
// uses it to decide whether to fetch the model blob from the sender.
func (p *SharedPool) Has(version string) bool {
	p.mu.Lock()
	_, ok := p.entries[version]
	p.mu.Unlock()
	if ok {
		return true
	}
	if p.store == nil {
		return false
	}
	_, ok, err := p.store.Get(version)
	return err == nil && ok
}

// ModelBlob serializes the model behind version (resident, or loaded from
// the store) as its canonical gob encoding — the payload a cluster peer
// streams to a handoff receiver that cannot resolve the hash itself.
func (p *SharedPool) ModelBlob(version string) ([]byte, error) {
	p.mu.Lock()
	e, ok := p.entries[version]
	p.mu.Unlock()
	var m *registry.Model
	if ok {
		m = e.model
	} else {
		loaded, err := p.load(version)
		if err != nil {
			return nil, err
		}
		m = loaded.model
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("ingest: encode model %s: %w", version, err)
	}
	return buf.Bytes(), nil
}

// AdoptBlob decodes a peer-fetched model blob, verifies its content address
// matches the version that was requested (a corrupt or substituted blob is
// an error, not a detector), and makes it resolvable here: persisted
// through the backing store when one is configured — durable, evictable,
// and fsync-gated by the store's sync policy, so journal entries pinning
// the hash stay pointed at bytes that survive what the journal survives —
// or registered pinned in memory otherwise.
func (p *SharedPool) AdoptBlob(version string, blob []byte) (string, error) {
	var m registry.Model
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&m); err != nil {
		return "", fmt.Errorf("ingest: decode model blob: %w", err)
	}
	v, err := m.Version()
	if err != nil {
		return "", err
	}
	if v != version {
		return "", fmt.Errorf("ingest: model blob hashes to %s, want %s", v, version)
	}
	if p.store != nil {
		return p.store.Put(&m)
	}
	return p.Register(&m)
}

// Refs reports how many references the given version holds: one per live
// sink, plus one while it is the shadow candidate.
func (p *SharedPool) Refs(version string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[version]; ok {
		return e.refs
	}
	return 0
}

func newSharedEntry(v string, m *registry.Model, pinned bool) *sharedEntry {
	specs := make([]ChannelSpec, len(m.Channels))
	for i, ch := range m.Channels {
		specs[i] = ChannelSpec{Name: ch.Name, Lanes: len(ch.Reference.Data), Rate: ch.Reference.Rate}
	}
	return &sharedEntry{version: v, model: m, specs: specs, pinned: pinned}
}

// Acquire implements SinkFactory: it resolves the Hello's model (resident,
// or loaded from the store and made resident), validates the channel layout
// against it, and hands out a sink of that entry. While a candidate is set,
// the session is also teed into a sink of the candidate's entry. A
// candidate that cannot serve the session — another channel layout, a
// monitor that fails to build — leaves it primary-only: a broken candidate
// model must never cost a live session.
func (p *SharedPool) Acquire(hello *Frame) (Sink, error) {
	return p.acquire(hello, true)
}

// acquire checks out a sink of the Hello's model and, when tee is set and a
// candidate is installed, a sink of the candidate too, returning the two
// teed together.
func (p *SharedPool) acquire(hello *Frame, tee bool) (Sink, error) {
	p.mu.Lock()
	var primary, shadow *sharedSink
	e, err := p.resolveLocked(hello.Model)
	if err == nil {
		primary, err = e.takeLocked(hello.Channels)
		p.evictLocked(e) // a store-loaded entry the layout did not fit leaves again
	}
	if err == nil && tee && p.shadow != nil {
		shadow, _ = p.shadow.takeLocked(hello.Channels) // another layout: primary-only
	}
	serve, onVerdict := p.serve, p.onVerdict
	p.mu.Unlock()
	if err == nil {
		err = p.build(primary)
	}
	if err != nil {
		if shadow != nil {
			p.checkin(shadow)
		}
		return nil, err
	}
	if shadow == nil || p.build(shadow) != nil {
		return primary, nil
	}
	return &shadowSink{primary: primary, shadow: shadow, serve: serve, onVerdict: onVerdict}, nil
}

// resolveLocked returns the entry for version (empty: the default), loading
// it from the store when it is not resident. The load runs with p.mu
// released; callers hold p.mu.
func (p *SharedPool) resolveLocked(version string) (*sharedEntry, error) {
	if version == "" {
		version = p.def
	}
	if version == "" {
		return nil, fmt.Errorf("ingest: no model requested and pool has no default")
	}
	if e, ok := p.entries[version]; ok {
		return e, nil
	}
	p.mu.Unlock()
	loaded, err := p.load(version)
	p.mu.Lock()
	if err != nil {
		return nil, err
	}
	// Another Acquire may have raced the load; keep whichever entry won.
	if e, ok := p.entries[version]; ok {
		return e, nil
	}
	p.entries[version] = loaded
	return loaded, nil
}

// takeLocked reserves a sink of e for a session with the given channel
// layout: a parked one if e has any, else an empty one for build to fill.
// The reference is taken here, under the pool's mutex, so a concurrent
// Release cannot evict e while the monitor is built unlocked.
func (e *sharedEntry) takeLocked(channels []ChannelSpec) (*sharedSink, error) {
	if err := matchChannelSpecs(channels, e.specs); err != nil {
		return nil, err
	}
	e.refs++
	if n := len(e.idle); n > 0 {
		ss := e.idle[n-1]
		e.idle = e.idle[:n-1]
		return ss, nil
	}
	return &sharedSink{entry: e}, nil
}

// build gives a sink from takeLocked its monitor if it has none yet; when
// the monitor cannot be built the sink's reference is returned.
func (p *SharedPool) build(ss *sharedSink) error {
	if ss.MonitorSink != nil {
		return nil
	}
	fm, err := ss.entry.model.Monitor()
	if err != nil {
		p.checkin(ss)
		return err
	}
	ss.MonitorSink = NewMonitorSink(fm, ss.entry.specs)
	return nil
}

// load resolves a non-resident version from the backing store.
func (p *SharedPool) load(version string) (*sharedEntry, error) {
	if p.store == nil {
		return nil, fmt.Errorf("ingest: model %s not resident and pool has no store", version)
	}
	m, ok, err := p.store.Get(version)
	if err != nil {
		return nil, fmt.Errorf("ingest: load model %s: %w", version, err)
	}
	if !ok {
		return nil, fmt.Errorf("ingest: model %s not found", version)
	}
	return newSharedEntry(version, m, false), nil
}

// Release implements SinkFactory: each sink — both halves of a teed
// session, each to its own entry — has its monitor reset and is parked on
// its entry's idle list, and an unpinned entry whose last reference just
// left is evicted along with its parked sinks.
func (p *SharedPool) Release(s Sink) {
	switch s := s.(type) {
	case *shadowSink:
		p.Release(s.primary)
		p.Release(s.shadow)
	case *sharedSink:
		s.fm.Reset()
		p.checkin(s)
	}
}

// checkin drops a sink's reference on its entry, parking the sink when it
// has a monitor and the idle list has room. The monitor must be reset.
func (p *SharedPool) checkin(ss *sharedSink) {
	p.mu.Lock()
	e := ss.entry
	e.refs--
	if ss.MonitorSink != nil && len(e.idle) < maxIdlePerModel {
		e.idle = append(e.idle, ss)
	}
	p.evictLocked(e)
	p.mu.Unlock()
}

// evictLocked drops an unpinned, unreferenced entry. Callers hold p.mu.
func (p *SharedPool) evictLocked(e *sharedEntry) {
	if !e.pinned && e.refs == 0 {
		if cur, ok := p.entries[e.version]; ok && cur == e {
			delete(p.entries, e.version)
		}
	}
}

// sharedSink is a MonitorSink that remembers which pool entry owns its
// monitor, so Release can return it to the right idle list.
type sharedSink struct {
	*MonitorSink
	entry *sharedEntry
}

// ModelVersion reports the content address of the model behind this sink —
// the version a session journal records so recovery re-resolves the exact
// detector the session was pinned to.
func (s *sharedSink) ModelVersion() string { return s.entry.version }

// Restore rebuilds a journaled or migrated session's sink: it checks out a
// sink exactly as a live admission would — resolving the journaled model
// version through the pool and validating the channel layout — then
// overwrites the monitor with the journaled snapshot. It never tees: a
// recovered or handed-off session runs primary-only, since candidate state
// is never persisted. A nil state (the session crashed before its first
// snapshot) yields a fresh sink; the client simply re-sends from the start.
func (p *SharedPool) Restore(hello *Frame, state []byte) (Sink, error) {
	s, err := p.acquire(hello, false)
	if err != nil {
		return nil, err
	}
	if len(state) == 0 {
		return s, nil
	}
	if err := s.(*sharedSink).RestoreState(state); err != nil {
		p.Release(s) // Release resets the monitor, clearing any partial apply
		return nil, err
	}
	return s, nil
}

// matchChannelSpecs rejects a Hello channel layout that differs from the
// trained layout in any name, lane count, or rate.
func matchChannelSpecs(got, want []ChannelSpec) error {
	if len(got) != len(want) {
		return fmt.Errorf("ingest: session has %d channels, trained for %d", len(got), len(want))
	}
	for i, ch := range got {
		w := want[i]
		if ch.Name != w.Name || ch.Lanes != w.Lanes || ch.Rate != w.Rate {
			return fmt.Errorf("ingest: channel %d is %s/%d lanes @ %g Hz, trained for %s/%d lanes @ %g Hz",
				i, ch.Name, ch.Lanes, ch.Rate, w.Name, w.Lanes, w.Rate)
		}
	}
	return nil
}
