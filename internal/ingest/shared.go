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
// are refcounted: a model loaded on demand from the backing Store is
// evicted when its last session releases, so a fleet cycling through many
// part models does not accumulate every reference it ever served; models
// installed with Register are pinned and survive idle periods.
//
// A session selects its model by content address in Hello.Model; an empty
// address means the pool's default. Monitors are recycled per entry the way
// MonitorPool recycles them (Reset on release, bounded idle list).
type SharedPool struct {
	// Store, when set, resolves model versions not yet resident. Leave nil
	// to serve only Registered models.
	Store *registry.Store
	// MaxIdlePerModel bounds how many reset monitors each entry keeps
	// (default 4).
	MaxIdlePerModel int

	mu      sync.Mutex
	def     string // default version for Hellos with no Model
	entries map[string]*sharedEntry
}

// sharedEntry is one resident model and its recycled sinks. refs counts
// live sinks; pinned entries ignore refs for eviction.
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
	return &SharedPool{Store: store, entries: map[string]*sharedEntry{}}
}

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
// version must be resident or resolvable from the Store at admission time.
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
// sessions hold sinks across them.
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
	if p.Store == nil {
		return false
	}
	_, ok, err := p.Store.Get(version)
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
	if p.Store != nil {
		return p.Store.Put(&m)
	}
	return p.Register(&m)
}

// Refs reports how many live sinks the given version has.
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
// or loaded from the Store and made resident), validates the channel layout
// against it, and hands out a sink — recycled if one is idle, freshly
// built otherwise. The entry's refcount is taken before the build runs so a
// concurrent Release cannot evict the entry out from under it.
func (p *SharedPool) Acquire(hello *Frame) (Sink, error) {
	p.mu.Lock()
	version := hello.Model
	if version == "" {
		version = p.def
	}
	if version == "" {
		p.mu.Unlock()
		return nil, fmt.Errorf("ingest: no model requested and pool has no default")
	}
	e, ok := p.entries[version]
	if !ok {
		p.mu.Unlock()
		loaded, err := p.load(version)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		// Another Acquire may have raced the load; keep whichever entry won.
		if cur, ok := p.entries[version]; ok {
			e = cur
		} else {
			e = loaded
			p.entries[version] = e
		}
	}
	if err := matchChannelSpecs(hello.Channels, e.specs); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	e.refs++
	var ss *sharedSink
	if n := len(e.idle); n > 0 {
		ss, e.idle = e.idle[n-1], e.idle[:n-1]
	}
	p.mu.Unlock()
	if ss != nil {
		return ss, nil
	}
	fm, err := e.model.Monitor()
	if err != nil {
		p.mu.Lock()
		e.refs--
		p.evictLocked(e)
		p.mu.Unlock()
		return nil, err
	}
	return &sharedSink{MonitorSink: NewMonitorSink(fm, e.specs), entry: e}, nil
}

// load resolves a non-resident version from the backing store.
func (p *SharedPool) load(version string) (*sharedEntry, error) {
	if p.Store == nil {
		return nil, fmt.Errorf("ingest: model %s not resident and pool has no store", version)
	}
	m, ok, err := p.Store.Get(version)
	if err != nil {
		return nil, fmt.Errorf("ingest: load model %s: %w", version, err)
	}
	if !ok {
		return nil, fmt.Errorf("ingest: model %s not found", version)
	}
	return newSharedEntry(version, m, false), nil
}

// Release implements SinkFactory: the sink's monitor is reset and the sink
// parked on its entry's idle list, and an unpinned entry whose last sink
// just left is evicted along with its recycled sinks.
func (p *SharedPool) Release(s Sink) {
	ss, ok := s.(*sharedSink)
	if !ok {
		return
	}
	ss.fm.Reset()
	maxIdle := p.MaxIdlePerModel
	if maxIdle <= 0 {
		maxIdle = 4
	}
	p.mu.Lock()
	e := ss.entry
	e.refs--
	if len(e.idle) < maxIdle {
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

// Restore implements RestoringFactory: it acquires a sink exactly as a live
// admission would — resolving the journaled model version through the pool
// and validating the channel layout — then overwrites the monitor with the
// journaled snapshot. A nil state (the session crashed before its first
// snapshot) yields a fresh sink; the client simply re-sends from the start.
func (p *SharedPool) Restore(hello *Frame, state []byte) (Sink, error) {
	s, err := p.Acquire(hello)
	if err != nil {
		return nil, err
	}
	if len(state) == 0 {
		return s, nil
	}
	ss, ok := unwrapSink(s).(StatefulSink)
	if !ok {
		p.Release(s)
		return nil, fmt.Errorf("ingest: pool sink cannot restore state")
	}
	if err := ss.RestoreState(state); err != nil {
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
