// Package dwm implements Dynamic Window Matching, the paper's novel
// window-based dynamic synchronizer (Section VI-B). DWM slides a pair of
// windows across the observed signal a and the reference signal b, using
// Time Delay Estimation with Bias (TDEB) to track the horizontal
// displacement h_disp[i] between corresponding windows, with a low-frequency
// inertia term h_disp,low (Eq. 12) that prevents the process from running
// away after a bad estimate.
//
// DWM is streaming-capable: a Synchronizer consumes one observed window per
// Step call, so it can run in real time while a print is in progress.
package dwm

import (
	"errors"
	"fmt"
	"math"

	"nsync/internal/obs"
	"nsync/internal/sigproc"
	"nsync/internal/tde"
)

// Hot-path metrics (see DESIGN.md §10). Pointers are resolved once so a
// disabled registry costs one atomic load per Step.
var (
	stepTimer   = obs.GetTimer("dwm.step")
	searchWidth = obs.GetHistogram("dwm.search_width")
)

// Params holds the five DWM parameters of Section VI-C, expressed in
// seconds (t_win etc.) so the same configuration works at any sampling
// rate. Table IV of the paper lists the values used for the two printers.
type Params struct {
	// TWin is the window size t_win in seconds.
	TWin float64
	// THop is the hop t_hop in seconds (paper default: t_win/2).
	THop float64
	// TExt is the extended window size t_ext in seconds.
	TExt float64
	// TSigma is the TDEB Gaussian standard deviation t_sigma in seconds
	// (paper default: t_ext/2).
	TSigma float64
	// Eta controls how fast the low-frequency displacement component tracks
	// the raw TDEB output (Eq. 12). The paper starts at 0.1.
	Eta float64
}

// DefaultParams returns parameters derived from a window size using the
// paper's default ratios: t_hop = t_win/2, t_ext/t_sigma = 2.
func DefaultParams(tWin, tExt float64) Params {
	return Params{
		TWin:   tWin,
		THop:   tWin / 2,
		TExt:   tExt,
		TSigma: tExt / 2,
		Eta:    0.1,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.TWin <= 0:
		return fmt.Errorf("dwm: TWin must be positive, got %v", p.TWin)
	case p.THop <= 0 || p.THop > p.TWin:
		return fmt.Errorf("dwm: THop must be in (0, TWin], got %v", p.THop)
	case p.TExt <= 0:
		return fmt.Errorf("dwm: TExt must be positive, got %v", p.TExt)
	case p.TSigma < 0:
		return fmt.Errorf("dwm: TSigma must be non-negative, got %v", p.TSigma)
	case p.Eta < 0 || p.Eta > 1:
		return fmt.Errorf("dwm: Eta must be in [0, 1], got %v", p.Eta)
	}
	return nil
}

// SampleParams is Params converted to sample counts at a concrete rate.
type SampleParams struct {
	NWin   int
	NHop   int
	NExt   int
	NSigma float64
	Eta    float64
}

// Samples converts p to sample counts at the given rate. NWin/NHop/NExt are
// at least 1 sample.
func (p Params) Samples(rate float64) SampleParams {
	atLeast1 := func(v float64) int {
		n := int(math.Round(v))
		if n < 1 {
			n = 1
		}
		return n
	}
	return SampleParams{
		NWin:   atLeast1(p.TWin * rate),
		NHop:   atLeast1(p.THop * rate),
		NExt:   atLeast1(p.TExt * rate),
		NSigma: p.TSigma * rate,
		Eta:    p.Eta,
	}
}

// Result is the output of a DWM run over a pair of signals.
type Result struct {
	// HDisp is the horizontal displacement per window, in samples.
	HDisp []int
	// HLow is the low-frequency displacement component per window (Eq. 12).
	HLow []int
	// Scores holds the winning TDEB similarity score per window.
	Scores []float64
	// NHop and NWin are the hop and window sizes in samples, so callers can
	// map window indexes back to sample or time positions.
	NHop, NWin int
	// Rate is the sampling rate of the synchronized signals.
	Rate float64
}

// HDispSeconds returns h_disp converted to seconds.
func (r *Result) HDispSeconds() []float64 {
	out := make([]float64, len(r.HDisp))
	for i, d := range r.HDisp {
		out[i] = float64(d) / r.Rate
	}
	return out
}

// Synchronizer runs the final DWM algorithm of Section VI-B against a fixed
// reference signal. Feed observed windows with Step (streaming) or whole
// signals with Run. A Synchronizer is not safe for concurrent use.
type Synchronizer struct {
	ref  *sigproc.Signal
	sp   SampleParams
	est  *tde.Estimator
	bias bool
	// search is ref prepared for est's searches; at FFT-branch shapes it
	// shares ref's cached block spectra (see tde.Reference).
	search *tde.Reference

	i      int
	hDisp  []int
	hLow   []int
	scores []float64
	// hLowPrev is h_disp,low[i-1]; the paper defines h_disp,low[-1] = 0.
	hLowPrev int
}

// Option configures a Synchronizer.
type Option func(*Synchronizer)

// WithEstimator replaces the default correlation-based TDE estimator.
func WithEstimator(e *tde.Estimator) Option {
	return func(s *Synchronizer) { s.est = e }
}

// WithoutBias disables the TDEB Gaussian bias, reducing DWM to the basic
// algorithm plus range extension. Exists for the TDEB ablation (Fig. 5).
func WithoutBias() Option {
	return func(s *Synchronizer) { s.bias = false }
}

// NewSynchronizer builds a DWM synchronizer for reference signal ref.
func NewSynchronizer(ref *sigproc.Signal, p Params, opts ...Option) (*Synchronizer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ref.Validate(); err != nil {
		return nil, fmt.Errorf("dwm: reference: %w", err)
	}
	if ref.Len() == 0 {
		return nil, errors.New("dwm: empty reference signal")
	}
	s := &Synchronizer{
		ref:  ref,
		sp:   p.Samples(ref.Rate),
		est:  tde.New(),
		bias: true,
	}
	if s.sp.NWin > ref.Len() {
		return nil, fmt.Errorf("dwm: window (%d samples) longer than reference (%d samples)", s.sp.NWin, ref.Len())
	}
	for _, o := range opts {
		o(s)
	}
	// The widest search region: the window plus both extensions, clipped
	// to the reference.
	s.search = s.est.Prepare(ref, s.sp.NWin+2*s.sp.NExt, s.sp.NWin)
	return s, nil
}

// SampleParams returns the resolved sample-domain parameters.
func (s *Synchronizer) SampleParams() SampleParams { return s.sp }

// NumWindows returns how many observed windows fit in n samples.
func (s *Synchronizer) NumWindows(n int) int {
	if n < s.sp.NWin {
		return 0
	}
	return (n-s.sp.NWin)/s.sp.NHop + 1
}

// WindowIndex returns the index of the next window Step expects.
func (s *Synchronizer) WindowIndex() int { return s.i }

// Proposal is the computed-but-uncommitted outcome of one DWM step:
// everything Step would derive from the next observed window, without any
// synchronizer state change. Obtain one with Propose, apply it with
// Commit. The split lets callers interleave other fallible work (e.g. the
// Monitor's vertical-distance computation) between computing a step and
// committing it, so an error anywhere leaves the synchronizer exactly at
// the window it was on.
type Proposal struct {
	// HDisp is the window's horizontal displacement in samples (Eq. 13).
	HDisp int
	// Score is the winning TDEB similarity score.
	Score float64
	// hLow is the updated low-frequency displacement (Eq. 12), applied to
	// the synchronizer on Commit.
	hLow int
}

// Propose computes the displacement of observed window a{i} (which must be
// exactly NWin samples with the reference's channel count) without
// advancing the synchronizer: WindowIndex and the accumulated arrays are
// unchanged, and the same window can be proposed again after a failure.
//
// Propose implements lines 7-11 of the final algorithm: it searches for
// the window inside b{i; h_low[i-1]}_E, derives h_disp[i] (Eq. 13) and the
// next h_disp,low (Eq. 12). Near the edges of the reference, the extended
// search window is clipped to the available samples and the TDEB bias
// center moves with the prediction.
func (s *Synchronizer) Propose(window *sigproc.Signal) (Proposal, error) {
	t := stepTimer.Start()
	if window.Len() != s.sp.NWin {
		return Proposal{}, fmt.Errorf("dwm: window %d has %d samples, want %d", s.i, window.Len(), s.sp.NWin)
	}
	if window.Channels() != s.ref.Channels() {
		return Proposal{}, fmt.Errorf("dwm: window %d has %d channels, want %d", s.i, window.Channels(), s.ref.Channels())
	}

	// Predicted start of the matching window in b.
	center := s.i*s.sp.NHop + s.hLowPrev
	lo := center - s.sp.NExt
	hi := center + s.sp.NExt + s.sp.NWin
	bn := s.ref.Len()
	if lo < 0 {
		lo = 0
	}
	if hi > bn {
		hi = bn
	}
	if hi-lo < s.sp.NWin {
		// The search region fell off the reference. Anchor it to whichever
		// edge it overran so synchronization can keep limping along; the
		// resulting large h_dist is itself an intrusion indicator.
		if lo == 0 {
			hi = s.sp.NWin
		} else {
			lo = bn - s.sp.NWin
		}
	}
	searchWidth.Observe(float64(hi - lo))

	var (
		j     int
		score float64
		err   error
	)
	if s.bias {
		// Bias center = similarity-array index of the predicted position.
		biasCenter := center - lo
		j, score, err = s.est.DelayBiasedIn(s.search, lo, hi, window, biasCenter, s.sp.NSigma)
	} else {
		j, score, err = s.est.DelayIn(s.search, lo, hi, window)
	}
	if err != nil {
		return Proposal{}, fmt.Errorf("dwm: window %d: %w", s.i, err)
	}

	hDisp := lo + j - s.i*s.sp.NHop // Eq. (13), generalized for clipping.
	raw := lo + j - center          // j - n_ext in the unclipped case.
	stepTimer.Stop(t)
	return Proposal{
		HDisp: hDisp,
		Score: score,
		hLow:  roundInt(s.sp.Eta*float64(raw)) + s.hLowPrev, // Eq. (12).
	}, nil
}

// Commit applies a Proposal: the displacement is appended, h_disp,low
// advances, and WindowIndex moves to the next window. Only commit the
// proposal computed for the current window.
func (s *Synchronizer) Commit(p Proposal) {
	s.hDisp = append(s.hDisp, p.HDisp)
	s.hLow = append(s.hLow, p.hLow)
	s.scores = append(s.scores, p.Score)
	s.hLowPrev = p.hLow
	s.i++
}

// Reset returns the synchronizer to its initial state — window index 0,
// h_disp,low[-1] = 0, empty displacement arrays — while keeping the
// reference, the resolved parameters, and the accumulated slice capacity.
// It exists so a long-running service can pool synchronizers across print
// sessions instead of re-running NewSynchronizer per session; a reset
// synchronizer produces results identical to a freshly constructed one.
func (s *Synchronizer) Reset() {
	s.i = 0
	s.hDisp = s.hDisp[:0]
	s.hLow = s.hLow[:0]
	s.scores = s.scores[:0]
	s.hLowPrev = 0
}

// Step processes observed window a{i} and returns its horizontal
// displacement in samples together with the TDEB similarity score. It is
// Propose followed by Commit: on error nothing is committed.
func (s *Synchronizer) Step(window *sigproc.Signal) (hDisp int, score float64, err error) {
	p, err := s.Propose(window)
	if err != nil {
		return 0, 0, err
	}
	s.Commit(p)
	return p.HDisp, p.Score, nil
}

// Result snapshots the displacements accumulated so far.
func (s *Synchronizer) Result() *Result {
	r := &Result{
		HDisp:  append([]int(nil), s.hDisp...),
		HLow:   append([]int(nil), s.hLow...),
		Scores: append([]float64(nil), s.scores...),
		NHop:   s.sp.NHop,
		NWin:   s.sp.NWin,
		Rate:   s.ref.Rate,
	}
	return r
}

// Run synchronizes a complete observed signal a against the reference,
// returning the full displacement result. It is equivalent to feeding every
// window of a through Step.
func Run(a, b *sigproc.Signal, p Params, opts ...Option) (*Result, error) {
	s, err := NewSynchronizer(b, p, opts...)
	if err != nil {
		return nil, err
	}
	// Validate the observed signal up front, like the reference: a ragged
	// observed signal would otherwise only fail deep inside Step, one
	// confusing per-window error at a time.
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("dwm: observed: %w", err)
	}
	if a.Channels() != b.Channels() {
		return nil, fmt.Errorf("dwm: observed has %d channels, reference has %d", a.Channels(), b.Channels())
	}
	nWindows := s.NumWindows(a.Len())
	var winView sigproc.Signal
	for i := 0; i < nWindows; i++ {
		start := i * s.sp.NHop
		if _, _, err := s.Step(a.SliceInto(&winView, start, start+s.sp.NWin)); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}

func roundInt(v float64) int {
	return int(math.Round(v))
}
