// Package checkpoint persists completed units of the experiment pipeline —
// generated datasets, table cells — as atomic, checksummed, versioned files
// on disk, so a multi-hour sweep can be killed at any point and resumed to
// byte-identical results. Entries are content-addressed: the caller's key
// must encode everything that determines the value (scale fingerprint,
// printer, seed, cell parameters), so a config change silently misses
// instead of resurrecting stale results.
//
// File format (little-endian):
//
//	offset  size  field
//	0       8     magic "NSYNCCKP"
//	8       4     format version (uint32, currently 1)
//	12      4     key length (uint32)
//	16      ...   key bytes (the full content-address, for collision
//	              detection and debuggability)
//	...     32    SHA-256 of the payload
//	...     8     payload length (uint64)
//	...     ...   payload (encoding/gob)
//
// Writes go to a temp file in the same directory followed by an atomic
// rename, so a kill mid-write leaves either the old entry or none — never a
// torn one. Loads verify magic, version, key, and checksum; any mismatch
// counts as a miss (and bumps checkpoint.corrupt), so a damaged file costs
// a recompute, not a crashed resume.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"nsync/internal/obs"
)

// Store metrics (see DESIGN.md §11): hits are work the resume skipped,
// misses are work it had to (re)do, writes are cells banked for next time.
var (
	hits    = obs.GetCounter("checkpoint.hit")
	misses  = obs.GetCounter("checkpoint.miss")
	writes  = obs.GetCounter("checkpoint.write")
	corrupt = obs.GetCounter("checkpoint.corrupt")
)

var magic = [8]byte{'N', 'S', 'Y', 'N', 'C', 'C', 'K', 'P'}

// version is the on-disk format version; bump it when the envelope or the
// payload encoding changes incompatibly, and old entries become misses.
const version uint32 = 1

// Store is a directory of checkpoint entries. Methods are safe for
// concurrent use: distinct keys never contend, and concurrent writes of the
// same key last-write-win atomically.
type Store struct {
	dir string
	// durable gates fsync on the write path. Off by default: batch sweeps
	// re-derive anything a power cut loses, and per-cell fsyncs would
	// dominate a multi-thousand-cell run. The daemon turns it on — a model
	// whose hash is pinned in a session journal must still resolve after
	// the machine, not just the process, comes back.
	durable atomic.Bool
}

// Open creates (if needed) and opens a checkpoint directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SetSync toggles durable writes. When on, Save fsyncs the temp file before
// the rename and the directory after it, so a committed entry survives power
// loss, not just process death. The atomic-rename torn-write guarantee holds
// either way; Sync only closes the written-but-not-yet-on-platter window.
// Safe to call concurrently with Saves.
func (s *Store) SetSync(on bool) { s.durable.Store(on) }

// Path returns the file path an entry for key lives at. The name is the
// hex SHA-256 of the key: keys are long hierarchical strings with
// path-hostile characters, and hashing keeps the directory flat.
func (s *Store) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".ckpt")
}

// Save persists v under key: gob-encoded, checksummed, written to a temp
// file and atomically renamed into place.
func (s *Store) Save(key string, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("checkpoint: encode %q: %w", key, err)
	}
	sum := sha256.Sum256(payload.Bytes())

	var buf bytes.Buffer
	buf.Write(magic[:])
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], version)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(key)))
	buf.Write(hdr[:])
	buf.WriteString(key)
	buf.Write(sum[:])
	var plen [8]byte
	binary.LittleEndian.PutUint64(plen[:], uint64(payload.Len()))
	buf.Write(plen[:])
	buf.Write(payload.Bytes())

	dst := s.Path(key)
	tmp, err := os.CreateTemp(s.dir, filepath.Base(dst)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: write %q: %w", key, err)
	}
	durable := s.durable.Load()
	if durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("checkpoint: sync %q: %w", key, err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: write %q: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: commit %q: %w", key, err)
	}
	if durable {
		// The rename is only durable once the directory entry is: fsync the
		// directory, or a power cut can resurrect the pre-rename state.
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("checkpoint: commit %q: %w", key, err)
		}
	}
	writes.Inc()
	return nil
}

// syncDir fsyncs a directory so renames inside it are on stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load reads the entry for key into v (a pointer, as for gob.Decode) and
// reports whether it was found. Missing entries return (false, nil); so do
// damaged or mismatched ones — a corrupt checkpoint costs a recompute, not
// a failed resume. Only environmental errors (unreadable directory) return
// a non-nil error.
func (s *Store) Load(key string, v any) (bool, error) {
	raw, err := os.ReadFile(s.Path(key))
	if os.IsNotExist(err) {
		misses.Inc()
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint: %w", err)
	}
	payload, ok := parseEntry(raw, key)
	if !ok {
		corrupt.Inc()
		misses.Inc()
		return false, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		corrupt.Inc()
		misses.Inc()
		return false, nil
	}
	hits.Inc()
	return true, nil
}

// parseEntry validates the envelope and returns the payload bytes.
func parseEntry(raw []byte, key string) ([]byte, bool) {
	const fixed = 8 + 4 + 4 // magic + version + key length
	if len(raw) < fixed || !bytes.Equal(raw[:8], magic[:]) {
		return nil, false
	}
	if binary.LittleEndian.Uint32(raw[8:12]) != version {
		return nil, false
	}
	keyLen := int(binary.LittleEndian.Uint32(raw[12:16]))
	rest := raw[fixed:]
	if keyLen < 0 || len(rest) < keyLen+sha256.Size+8 {
		return nil, false
	}
	if string(rest[:keyLen]) != key {
		// Hash collision or a renamed file: the stored key is authoritative.
		return nil, false
	}
	rest = rest[keyLen:]
	var sum [sha256.Size]byte
	copy(sum[:], rest[:sha256.Size])
	rest = rest[sha256.Size:]
	plen := binary.LittleEndian.Uint64(rest[:8])
	payload := rest[8:]
	if uint64(len(payload)) != plen {
		return nil, false
	}
	if sha256.Sum256(payload) != sum {
		return nil, false
	}
	return payload, true
}
