// Package registry gives detector models an identity and a lifecycle. A
// Model is the complete trained state of a fused streaming detector — per
// channel: reference, DWM parameters, thresholds, health config — and its
// Version is a content address (truncated SHA-256 of the canonical gob
// encoding), so two models with the same bytes are the same version and a
// re-baselined candidate is always distinguishable from the active model.
// Models persist through internal/checkpoint's checksummed atomic store: a
// torn or corrupt file is a miss, never a half-loaded detector.
//
// The Deployment half (lifecycle.go) is the promotion state machine a new
// version must walk before it serves verdicts: shadow (side-by-side, no
// authority) → canary (authoritative, active model still compared) →
// active, with a disagreement budget that retires the candidate instead of
// promoting it when the two models diverge on live sessions.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"

	"nsync/internal/checkpoint"
	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/sigproc"
)

// ChannelModel is one side channel's trained state.
type ChannelModel struct {
	Name       string
	Reference  *sigproc.Signal
	Params     dwm.Params
	Thresholds core.Thresholds
	Health     core.HealthConfig
}

// Model is a complete, self-contained fused detector configuration: enough
// to build a core.FusedMonitor with no other state.
type Model struct {
	// K is the fused vote quorum.
	K        int
	Channels []ChannelModel
}

// Validate reports structurally unusable models.
func (m *Model) Validate() error {
	if m == nil || len(m.Channels) == 0 {
		return errors.New("registry: model has no channels")
	}
	for i, ch := range m.Channels {
		if ch.Reference == nil || ch.Reference.Len() == 0 {
			return fmt.Errorf("registry: channel %d (%s): empty reference", i, ch.Name)
		}
	}
	return nil
}

// Version returns the model's content address: the first 12 hex digits of
// the SHA-256 of its canonical gob encoding. Any change to any channel's
// reference samples, thresholds, DWM parameters, or health config changes
// the version; building the same model twice yields the same version.
func (m *Model) Version() (string, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return "", fmt.Errorf("registry: encode model: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:6]), nil
}

// Monitor builds a fresh streaming fused monitor from the model.
func (m *Model) Monitor() (*core.FusedMonitor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	chans := make([]core.FusedMonitorChannel, len(m.Channels))
	for i, ch := range m.Channels {
		chans[i] = core.FusedMonitorChannel{
			Name:       ch.Name,
			Reference:  ch.Reference,
			Params:     ch.Params,
			Thresholds: ch.Thresholds,
			Health:     ch.Health,
		}
	}
	return core.NewFusedMonitor(chans, core.FusedConfig{K: m.K})
}

// storeKeyPrefix namespaces model entries inside the checkpoint store, so a
// model store can share a directory with experiment checkpoints.
const storeKeyPrefix = "model/"

// Store persists models on disk, content-addressed by version.
type Store struct {
	ckpt *checkpoint.Store
}

// OpenStore creates (if needed) and opens a model store directory.
func OpenStore(dir string) (*Store, error) {
	ckpt, err := checkpoint.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &Store{ckpt: ckpt}, nil
}

// SetSync toggles durable writes on the underlying checkpoint store. The
// daemon enables it when session journaling is on: a journal entry pins a
// model by hash, so the model file it points at must survive anything the
// journal survives.
func (s *Store) SetSync(on bool) { s.ckpt.SetSync(on) }

// Put persists the model and returns its version. Saving the same model
// twice overwrites the identical entry — Put is idempotent.
func (s *Store) Put(m *Model) (string, error) {
	if err := m.Validate(); err != nil {
		return "", err
	}
	v, err := m.Version()
	if err != nil {
		return "", err
	}
	if err := s.ckpt.Save(storeKeyPrefix+v, m); err != nil {
		return "", err
	}
	return v, nil
}

// Get loads the model stored under version, reporting whether it was found.
// A damaged entry is a miss, mirroring the checkpoint store's policy.
func (s *Store) Get(version string) (*Model, bool, error) {
	var m Model
	ok, err := s.ckpt.Load(storeKeyPrefix+version, &m)
	if err != nil || !ok {
		return nil, false, err
	}
	return &m, true, nil
}
