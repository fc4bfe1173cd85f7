package closure

import (
	"mgba/internal/engine"
	"mgba/internal/sta"
)

// The flow times the design through one list of corner views. View 0 is
// the selection corner; a multi-corner mGBA run (Options.Core.Corners,
// N>=2) appends one view per extra corner, in set order. Every view
// carries its own analysis config, taken once from the calibrator, and
// its own weights, so calibration, in-place trials, structural trials and
// resume all time every corner the same way. A GBA or single-corner run is
// a list of one. Repairs are scheduled against the merged worst-corner
// slack, and a transform is vetoed when it regresses an extra corner's
// WNS — a move is only accepted when no corner gets worse, so closing the
// selection corner never reopens another.

// cornerView is one corner's live timing view inside the flow.
type cornerView struct {
	name    string
	cfg     sta.Config // the corner's analysis config, Weights unset
	weights []float64  // the corner's mGBA weights; nil under GBA
	r       *sta.Result
	wns     float64 // r.WNS before the trial in flight
}

// CornerQoR is one corner's final timing in a multi-corner Result.
type CornerQoR struct {
	Name string  `json:"name"`
	WNS  float64 `json:"wns"`
	TNS  float64 `json:"tns"`
}

// timeOn times every corner on sess under its weights, padded with 1 for
// instances created since the last calibration, without touching the
// flow's own views.
func (f *flow) timeOn(sess *engine.Session) []*sta.Result {
	rs := make([]*sta.Result, len(f.views))
	for i := range f.views {
		v := &f.views[i]
		for v.weights != nil && len(v.weights) < len(f.d.Instances) {
			v.weights = append(v.weights, 1)
		}
		cfg := v.cfg
		cfg.Weights = v.weights
		rs[i] = sess.Run(cfg)
	}
	return rs
}

// retire swaps in freshly computed timing views, one per corner, returning
// the previous ones' scratch buffers to their session pool. Safe because
// the flow is the only holder of its Results between refreshes.
func (f *flow) retire(rs []*sta.Result) {
	for i := range f.views {
		f.views[i].r.Release()
		f.views[i].r = rs[i]
	}
}

// markWNS records every view's WNS ahead of a trial, for the veto.
func (f *flow) markWNS() {
	for i := range f.views {
		f.views[i].wns = f.views[i].r.WNS
	}
}

// update advances every view in place over a connectivity-preserving
// move's dirty set.
func (f *flow) update(mod []int) {
	for i := range f.views {
		f.views[i].r.Update(mod)
	}
}

// vetoed is the multi-corner acceptance veto: true when an extra corner's
// WNS fell below where it stood before the trial (a failing corner may not
// get worse; a passing corner may not start failing). The selection
// corner is arbitrated by the transform's own Accept rule. trial holds a
// structural trial's Results in view order; nil means the views advanced
// in place.
func (f *flow) vetoed(trial []*sta.Result) bool {
	for i := 1; i < len(f.views); i++ {
		after := f.views[i].r
		if trial != nil {
			after = trial[i]
		}
		if regressedWNS(f.views[i].wns, after.WNS) {
			return true
		}
	}
	return false
}

// regressedWNS reports a corner WNS regression. The epsilon absorbs the
// engine's floating-point noise.
func regressedWNS(before, after float64) bool {
	floor := before
	if floor > 0 {
		floor = 0
	}
	return after < floor-1e-9
}

// mergedSlack returns the per-endpoint slack the repair loop and the
// violation count run on: the worst slack over every corner view. The
// buffer is reused across calls; callers must not retain it.
func (f *flow) mergedSlack() []float64 {
	sel := f.views[0].r.Slack
	if len(f.views) == 1 {
		return sel
	}
	if cap(f.mergedBuf) < len(sel) {
		f.mergedBuf = make([]float64, len(sel))
	}
	merged := f.mergedBuf[:len(sel)]
	copy(merged, sel)
	for _, v := range f.views[1:] {
		for i, s := range v.r.Slack {
			if s < merged[i] {
				merged[i] = s
			}
		}
	}
	return merged
}

// cornerQoR reports each extra corner's final timing for the Result.
func (f *flow) cornerQoR() []CornerQoR {
	if len(f.views) == 1 {
		return nil
	}
	out := make([]CornerQoR, 0, len(f.views)-1)
	for _, v := range f.views[1:] {
		out = append(out, CornerQoR{Name: v.name, WNS: v.r.WNS, TNS: v.r.TNS})
	}
	return out
}
