package tde

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"nsync/internal/fft"
	"nsync/internal/sigproc"
)

// Reference is a fixed signal whose regions delay estimates search, as
// DWM searches its reference once per observed window. On the fast path at
// FFT-branch shapes it carries the spectra of overlapping blocks of the
// signal, shared process-wide with every other Reference of the same
// content, so an estimate transforms only the template: two FFTs per lane
// pair instead of three. Estimates through a Reference equal those on the
// same region passed as x, up to FFT round-off in the cross-terms.
//
// The signal must not change while the Reference is in use; prepare a new
// Reference after changing it.
type Reference struct {
	sig    *sigproc.Signal
	blocks *blockSpectra // nil: estimates compute x's spectra per call
}

// Prepare makes sig the search space of DelayIn and DelayBiasedIn calls
// with ny-sample templates over regions of at most nxMax samples. Only an
// estimator on the fast path whose widest region takes the FFT branch
// looks up (or builds) the cached block spectra; any other Reference just
// names the signal.
func (e *Estimator) Prepare(sig *sigproc.Signal, nxMax, ny int) *Reference {
	r := &Reference{sig: sig}
	nxMax = min(nxMax, sig.Len())
	if e.fastCorr && nxMax*ny > directMax && sig.Validate() == nil {
		r.blocks = sharedBlocks(sig, nxMax)
	}
	return r
}

// similarityIn is similarityInto over the region [lo, hi) of r, reading
// x's spectra from r's cached blocks when one covers the region.
func (e *Estimator) similarityIn(buf *corrBuf, r *Reference, lo, hi int, y *sigproc.Signal) ([]float64, error) {
	if lo < 0 || hi > r.sig.Len() || lo > hi {
		return nil, fmt.Errorf("tde: region [%d, %d) outside a %d-sample reference", lo, hi, r.sig.Len())
	}
	x := r.sig.SliceInto(&buf.region, lo, hi)
	return e.similarityInto(buf, x, y, r.blocks.at(lo, hi))
}

// blockSpectra holds the lane spectra of the blocks sig[b·stride,
// b·stride+m) of a reference, each zero-padded past the signal's end.
//
// A region [lo, hi) of at most nxMax samples is served by block
// b = lo/stride at offset off = lo − b·stride: with stride = m − nxMax + 1,
// off + (hi − lo) <= stride − 1 + nxMax = m, so the region lies inside the
// block and its correlations never wrap (see crossDotsInto). m starts at
// NextPow2(nxMax) and doubles while the stride is under m/8, which keeps
// the cached bins — about m/stride times the signal's size — bounded.
type blockSpectra struct {
	m, stride, lanes int
	bins             []complex128 // block b at [b·lanes·(m/2+1), (b+1)·lanes·(m/2+1))
}

func blockGeometry(nxMax int) (m, stride int) {
	m = fft.NextPow2(nxMax)
	for m-nxMax+1 < m/8 {
		m *= 2
	}
	return m, m - nxMax + 1
}

func buildBlocks(sig *sigproc.Signal, nxMax int) *blockSpectra {
	m, stride := blockGeometry(nxMax)
	n, lanes := sig.Len(), sig.Channels()
	per := lanes * (m/2 + 1)
	nb := (n-1)/stride + 1
	bs := &blockSpectra{m: m, stride: stride, lanes: lanes, bins: make([]complex128, nb*per)}
	z := make([]complex128, m)
	data := make([][]float64, lanes)
	all := make([]int, lanes)
	for c := range all {
		all[c] = c
	}
	for b := 0; b < nb; b++ {
		lo := b * stride
		hi := min(lo+m, n)
		for c := range data {
			data[c] = sig.Data[c][lo:hi]
		}
		halfSpectraInto(laneSpectra{bins: bs.bins[b*per : (b+1)*per], m: m}, z, data, all)
	}
	return bs
}

// at returns the spectra of the block holding the region [lo, hi), or no
// spectra when bs is nil or the region is wider than the blocks serve.
func (bs *blockSpectra) at(lo, hi int) laneSpectra {
	if bs == nil {
		return laneSpectra{}
	}
	b := lo / bs.stride
	off := lo - b*bs.stride
	per := bs.lanes * (bs.m/2 + 1)
	if off+(hi-lo) > bs.m || (b+1)*per > len(bs.bins) {
		return laneSpectra{}
	}
	return laneSpectra{bins: bs.bins[b*per : (b+1)*per], m: bs.m, off: off}
}

// maxSharedReferences bounds the process-wide block-spectra cache. A
// process searches a handful of distinct references at a time (one per
// channel of each live model), so the bound only matters to a caller that
// keeps changing its reference, like the re-baselining engine: past it the
// least recently prepared entry is dropped. A live Reference keeps its
// blocks regardless.
const maxSharedReferences = 16

// refKey addresses cached blocks by content: a digest of the samples plus
// the shape. A pointer key would serve stale spectra to a caller that
// changes a signal in place and prepares it again, as re-baselining does.
type refKey struct {
	digest          [sha256.Size]byte
	n, lanes, nxMax int
}

type refEntry struct {
	once   sync.Once
	blocks *blockSpectra
	used   uint64 // refCache.tick at the last lookup
}

var refCache = struct {
	mu      sync.Mutex
	tick    uint64
	entries map[refKey]*refEntry
}{entries: make(map[refKey]*refEntry)}

// sharedBlocks returns the cached block spectra of sig for regions of at
// most nxMax samples, building them on a miss. Concurrent callers with the
// same content wait for one build.
func sharedBlocks(sig *sigproc.Signal, nxMax int) *blockSpectra {
	key := refKey{digest: digest(sig), n: sig.Len(), lanes: sig.Channels(), nxMax: nxMax}
	refCache.mu.Lock()
	e := refCache.entries[key]
	if e == nil {
		if len(refCache.entries) >= maxSharedReferences {
			evictOldest()
		}
		e = &refEntry{}
		refCache.entries[key] = e
	}
	refCache.tick++
	e.used = refCache.tick
	refCache.mu.Unlock()
	e.once.Do(func() { e.blocks = buildBlocks(sig, nxMax) })
	return e.blocks
}

// evictOldest drops the least recently used entry; refCache.mu is held.
func evictOldest() {
	var oldest refKey
	oldestUse := uint64(math.MaxUint64)
	for k, e := range refCache.entries {
		if e.used < oldestUse {
			oldest, oldestUse = k, e.used
		}
	}
	delete(refCache.entries, oldest)
}

// digest hashes the sample bits of every lane.
func digest(sig *sigproc.Signal) [sha256.Size]byte {
	h := sha256.New()
	var chunk [8 * 1024]byte
	for _, lane := range sig.Data {
		for len(lane) > 0 {
			k := min(len(lane), len(chunk)/8)
			for i, v := range lane[:k] {
				binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(v))
			}
			h.Write(chunk[:8*k])
			lane = lane[k:]
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
