package tde

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"nsync/internal/sigproc"
)

// refShape is a search geometry at FFT-branch size: a 5000-sample
// reference, 400-sample templates and regions of up to 800 samples, so the
// blocks are m = 1024 points at a stride of 225.
const (
	refLen   = 5000
	refNY    = 400
	refNXMax = 800
)

// walkSignal builds a random-walk signal with the given number of lanes.
func walkSignal(rng *rand.Rand, lanes, n int) *sigproc.Signal {
	s := sigproc.New(100, lanes, n)
	for c := range s.Data {
		v := 0.0
		for i := range s.Data[c] {
			v += rng.NormFloat64()
			s.Data[c][i] = v
		}
	}
	return s
}

// templateAt cuts a noisy copy of sig[at, at+refNY) as a template, with
// the listed lanes held constant instead.
func templateAt(rng *rand.Rand, sig *sigproc.Signal, at int, constant ...int) *sigproc.Signal {
	y := sigproc.New(sig.Rate, sig.Channels(), refNY)
	for c := range y.Data {
		for i := range y.Data[c] {
			y.Data[c][i] = sig.Data[c][at+i] + 0.1*rng.NormFloat64()
		}
	}
	for _, c := range constant {
		for i := range y.Data[c] {
			y.Data[c][i] = 2
		}
	}
	return y
}

// cachedMatchesScratch checks one region of r against the same region
// passed as a plain x, which computes x's spectra per call: scores within
// 1e-9 and identical plain and biased argmaxes. The region must be served
// by r's cached blocks.
func cachedMatchesScratch(t *testing.T, r *Reference, lo, hi int, y *sigproc.Signal) {
	t.Helper()
	if r.blocks.at(lo, hi).bins == nil {
		t.Fatalf("region [%d, %d) is not served by the cached blocks", lo, hi)
	}
	est := New()
	x := r.sig.Slice(lo, hi)
	buf := &corrBuf{}
	got, err := est.similarityIn(buf, r, lo, hi, y)
	if err != nil {
		t.Fatal(err)
	}
	got = append([]float64(nil), got...)
	want, err := est.SimilarityArray(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("region [%d, %d): %d scores, want %d", lo, hi, len(got), len(want))
	}
	for p := range want {
		if math.Abs(got[p]-want[p]) > 1e-9 {
			t.Fatalf("region [%d, %d) pos %d: cached %v vs scratch %v", lo, hi, p, got[p], want[p])
		}
	}
	gd, _, err := est.DelayIn(r, lo, hi, y)
	if err != nil {
		t.Fatal(err)
	}
	wd, _, err := est.Delay(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if gd != wd {
		t.Errorf("region [%d, %d): DelayIn %d, Delay %d", lo, hi, gd, wd)
	}
	center := (hi - lo - refNY) / 3
	gb, _, err := est.DelayBiasedIn(r, lo, hi, y, center, 60)
	if err != nil {
		t.Fatal(err)
	}
	wb, _, err := est.DelayBiasedAt(x, y, center, 60)
	if err != nil {
		t.Fatal(err)
	}
	if gb != wb {
		t.Errorf("region [%d, %d): DelayBiasedIn %d, DelayBiasedAt %d", lo, hi, gb, wb)
	}
}

// TestReferenceMatchesScratch covers the regions DWM can search: clipped
// at either end of the reference, the anchored window-only region, a
// region starting on a block boundary and one at the last offset a block
// serves, with an odd live-lane count and with a constant template lane
// between live ones.
func TestReferenceMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	m, stride := blockGeometry(refNXMax)
	if m != 1024 || stride != 225 {
		t.Fatalf("block geometry (%d, %d), want (1024, 225)", m, stride)
	}
	regions := []struct {
		name   string
		lo, hi int
	}{
		{"clipped at the start", 0, refNXMax - 150},
		{"clipped at the end", refLen - refNXMax + 170, refLen},
		{"anchored window only", refLen - refNY, refLen},
		{"block boundary", 7 * stride, 7*stride + refNXMax},
		{"last offset of a block", 7*stride + stride - 1, 7*stride + stride - 1 + refNXMax},
		{"interior", 2345, 2345 + refNXMax},
	}
	lanes := []struct {
		name     string
		channels int
		constant []int
	}{
		{"odd live lanes", 3, nil},
		{"constant lane between live lanes", 4, []int{1}},
	}
	for _, ln := range lanes {
		sig := walkSignal(rng, ln.channels, refLen)
		r := New().Prepare(sig, refNXMax, refNY)
		if r.blocks == nil {
			t.Fatalf("%s: no cached blocks at an FFT-branch shape", ln.name)
		}
		for _, rg := range regions {
			t.Run(ln.name+"/"+rg.name, func(t *testing.T) {
				at := rg.lo + (rg.hi-rg.lo-refNY)/2
				cachedMatchesScratch(t, r, rg.lo, rg.hi, templateAt(rng, sig, at, ln.constant...))
			})
		}
	}
}

// TestReferenceNotCachedOffFastPath: the cache is only built where it is
// used — FFT-branch shapes on the fast path.
func TestReferenceNotCachedOffFastPath(t *testing.T) {
	sig := walkSignal(rand.New(rand.NewSource(96)), 2, 2000)
	if r := New().Prepare(sig, 300, 200); r.blocks != nil {
		t.Error("direct-branch shape built cached blocks")
	}
	if r := New(WithoutFastPath()).Prepare(sig, refNXMax, refNY); r.blocks != nil {
		t.Error("naive estimator built cached blocks")
	}
}

// TestReferenceRebuiltAfterInPlaceChange is the stale-cache regression:
// changing a signal in place and preparing it again, as re-baselining
// does, must not serve the old content's spectra.
func TestReferenceRebuiltAfterInPlaceChange(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	sig := walkSignal(rng, 2, refLen)
	old := New().Prepare(sig, refNXMax, refNY)
	blend := walkSignal(rng, 2, refLen)
	for c := range sig.Data {
		for i := range sig.Data[c] {
			sig.Data[c][i] = 0.7*sig.Data[c][i] + 0.3*blend.Data[c][i]
		}
	}
	r := New().Prepare(sig, refNXMax, refNY)
	if r.blocks == old.blocks {
		t.Fatal("changed content was served the cached blocks of the old content")
	}
	fresh := buildBlocks(sig, refNXMax)
	for i, v := range fresh.bins {
		if r.blocks.bins[i] != v {
			t.Fatalf("bin %d: cached %v, fresh %v", i, r.blocks.bins[i], v)
		}
	}
	cachedMatchesScratch(t, r, 1000, 1000+refNXMax, templateAt(rng, sig, 1200))
}

// TestReferenceConcurrentPrepare prepares one never-seen content from
// several goroutines and estimates through it (run it under -race): every
// goroutine must get the single built entry and the serial answer.
func TestReferenceConcurrentPrepare(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	sig := walkSignal(rng, 3, refLen)
	y := templateAt(rng, sig, 3000)
	const lo, hi = 2800, 2800 + refNXMax
	wantD, wantS, err := New().DelayBiasedAt(sig.Slice(lo, hi), y, 150, 60)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	refs := make([]*Reference, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			est := New()
			refs[w] = est.Prepare(sig, refNXMax, refNY)
			for i := 0; i < 3; i++ {
				d, s, err := est.DelayBiasedIn(refs[w], lo, hi, y, 150, 60)
				if err != nil {
					t.Error(err)
					return
				}
				if d != wantD || math.Abs(s-wantS) > 1e-9 {
					t.Errorf("worker %d: (%d, %v), serial (%d, %v)", w, d, s, wantD, wantS)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if refs[w].blocks != refs[0].blocks {
			t.Fatalf("worker %d got a second build of the same content", w)
		}
	}
}

// TestReferenceCacheBounded: preparing more distinct contents than the
// cache holds evicts instead of growing, and a Reference whose entry was
// evicted keeps working from its own blocks.
func TestReferenceCacheBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	first := walkSignal(rng, 1, 1200)
	r := New().Prepare(first, refNXMax, refNY)
	for i := 0; i < 2*maxSharedReferences; i++ {
		New().Prepare(walkSignal(rng, 1, 1200), refNXMax, refNY)
	}
	refCache.mu.Lock()
	size := len(refCache.entries)
	refCache.mu.Unlock()
	if size > maxSharedReferences {
		t.Fatalf("cache holds %d entries, bound is %d", size, maxSharedReferences)
	}
	cachedMatchesScratch(t, r, 300, 300+refNXMax, templateAt(rng, first, 500))
}

// TestBlockGeometry: every block is at least as long as the widest region
// and its stride is at least 1/8 of its length.
func TestBlockGeometry(t *testing.T) {
	for nxMax := 1; nxMax < 1<<14; nxMax += 37 {
		m, stride := blockGeometry(nxMax)
		if m < nxMax || stride < 1 || stride < m/8 || stride != m-nxMax+1 {
			t.Fatalf("nxMax %d: m %d, stride %d", nxMax, m, stride)
		}
	}
}
