package closure

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/graph"
	"mgba/internal/netio"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/pba"
	"mgba/internal/sta"
	"mgba/internal/transform"
)

// phase identifies where in the flow a run (or a checkpoint of one) is.
type phase int

const (
	phaseRepair   phase = iota // round-based repair loop
	phaseRecovery              // area/leakage recovery pass
	phaseFinal                 // mGBA: final recalibrate + repair
	phaseDone                  // nothing left but finish()
)

// flow carries the mutable optimization state. The timing session is
// rebuilt only for connectivity-changing trials (buffer insertion,
// retiming), derived from the current one so the clock state carries
// over; the thousands of resize trials in between run through
// Result.Update against the same session, allocating nothing.
type flow struct {
	d   *netlist.Design
	opt Options
	ctx context.Context

	reg     *transform.Registry
	kindObs map[string]kindMetrics

	g    *graph.Graph
	sess *engine.Session

	// views holds one timing view per corner, the selection corner first
	// (see corners.go); mergedBuf is the reused worst-corner slack buffer.
	views     []cornerView
	mergedBuf []float64

	// cal is the persistent mGBA calibrator (nil for GBA), built when the
	// run starts. calStale marks it as bound to a superseded session
	// after an accepted structural move (buffer insertion, retiming); the
	// next calibrate rebinds it instead of discarding it. dirty
	// accumulates the instances whose timing changed through accepted
	// transforms since the last calibration — the seed set for the
	// calibrator's incremental re-enumeration.
	cal      *core.Calibrator
	calStale bool
	dirty    map[int]bool

	res        *Result
	transforms int // transforms since the last recalibration

	// Checkpoint/resume bookkeeping.
	curPhase        phase
	curRound        int
	recoveryPos     int // next f.g.Topo index for the recovery pass
	finalCalibrated bool
	sinceCkpt       int // accepted transforms since the last checkpoint
}

// analysis bundles the selection corner's current timing view for
// transform calls. Rebuilt at each use: connectivity-changing trials
// replace G and R.
func (f *flow) analysis() *transform.Analysis {
	return &transform.Analysis{D: f.d, G: f.g, R: f.views[0].r}
}

// snap captures the acceptance snapshot of a selection-corner Result for
// endpoint fi (NaN slack for recovery-pass calls, which carry no target
// endpoint).
func snap(r *sta.Result, fi int) transform.Snapshot {
	s := math.NaN()
	if fi >= 0 {
		s = r.Slack[fi]
	}
	return transform.Snapshot{Slack: s, WNS: r.WNS, TNS: r.TNS}
}

// stopped reports whether the run's context has been cancelled, latching
// the interruption into the Result the first time it observes it.
func (f *flow) stopped() bool {
	if f.res.Interrupted {
		return true
	}
	if f.ctx == nil {
		return false
	}
	select {
	case <-f.ctx.Done():
		f.res.Interrupted = true
		f.res.StopReason = f.ctx.Err().Error()
		return true
	default:
		return false
	}
}

// Optimize runs the timing-closure flow on the design in place and returns
// the final QoR. The design is mutated (resized cells, inserted buffers,
// relocated registers). It is Run with a background context.
func Optimize(d *netlist.Design, opt Options) (*Result, error) {
	return Run(context.Background(), d, opt)
}

// Run runs the timing-closure flow under a context. Cancelling the context
// (or exceeding its deadline) stops the flow at the next transform
// boundary and returns a valid partial Result with Interrupted set — never
// an error, and never a design in a half-applied-transform state. A
// context that is already cancelled yields a zero-transform Result whose
// QoR fields still describe the (re-timed) input design.
func Run(ctx context.Context, d *netlist.Design, opt Options) (*Result, error) {
	return run(ctx, d, opt, nil, nil, nil)
}

// Resume continues an interrupted run from a checkpoint written by a
// previous Run with Options.CheckpointPath set. The opt passed here
// controls the continued run and must use the same TimerKind the
// checkpoint was written under; counters resume from their checkpointed
// values, so the combined Result matches an uninterrupted run. Both
// current (v2) and pre-transform-framework (v1) checkpoints resume; a v1
// checkpoint carries no per-transform state, so per-kind counts are
// derived from its counters and stateful transforms start fresh.
func Resume(ctx context.Context, path string, opt Options) (*Result, error) {
	c, err := netio.LoadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	if len(c.State) == 0 {
		return nil, fmt.Errorf("closure: checkpoint has no flow state")
	}
	var st ckptState
	if err := json.Unmarshal(c.State, &st); err != nil {
		return nil, fmt.Errorf("closure: bad checkpoint state: %w", err)
	}
	if st.Phase < int(phaseRepair) || st.Phase > int(phaseDone) {
		return nil, fmt.Errorf("closure: checkpoint phase %d out of range", st.Phase)
	}
	if TimerKind(st.Timer) != opt.Timer {
		return nil, fmt.Errorf("closure: checkpoint was written by the %v flow, options select %v",
			TimerKind(st.Timer), opt.Timer)
	}
	return run(ctx, c.Design, opt, &st, c.Weights, c.Kinds)
}

// run is the shared body of Run and Resume: st/weights/kinds are nil for
// a fresh run and carry the checkpointed flow and per-transform state for
// a resumed one.
func run(ctx context.Context, d *netlist.Design, opt Options, st *ckptState,
	weights []float64, kinds map[string]json.RawMessage) (*Result, error) {
	if opt.STA.Weights != nil {
		return nil, fmt.Errorf("closure: STA config must not pre-set weights")
	}
	if opt.MaxTransforms < 0 || opt.MaxBuffers < 0 {
		return nil, fmt.Errorf("closure: negative budgets")
	}
	start := time.Now()
	f, err := newFlow(ctx, d, opt)
	if err != nil {
		return nil, err
	}
	ph, round := phaseRepair, 0
	if st != nil {
		if err := f.restore(st, weights); err != nil {
			return nil, err
		}
		if err := f.restoreKinds(kinds); err != nil {
			return nil, err
		}
		ph, round = phase(st.Phase), st.Round
	}
	f.curPhase, f.curRound = ph, round

	// Initial timing views. A resumed mGBA run re-times every corner under
	// its checkpointed weights instead of recalibrating, preserving the
	// calibration cadence of the original run.
	if st != nil && weights != nil {
		f.retire(f.timeOn(f.sess))
	} else if err := f.calibrate(); err != nil {
		return nil, err
	}

	for ph < phaseDone && !f.stopped() {
		f.curPhase = ph
		sp := obs.StartSpan("closure." + phaseName(ph))
		switch ph {
		case phaseRepair:
			// Repair in rounds: each round fixes what its timing view can
			// fix, then the view is refreshed and the remaining violators
			// retried.
			//
			// The two flows refresh differently, mirroring practice (§2.2
			// of the paper): the GBA flow must subject its remaining
			// violating endpoints to a PBA validation pass — the very
			// bottleneck the paper calls out, whose cost grows with GBA's
			// pessimism — while the mGBA flow simply recalibrates its
			// weights, which are PBA-accurate by construction.
			for ; round < 3; round++ {
				f.curRound = round
				obsRepairRounds.Inc()
				f.checkpoint()
				if err := f.fixViolations(); err != nil {
					return nil, err
				}
				if f.stopped() {
					break
				}
				if f.opt.Timer == TimerGBA {
					if f.validateViolators() <= f.opt.MaxViolatedAccept {
						break // PBA waives the residual GBA violations
					}
					continue // real violations remain: retry the repair loop
				}
				if f.violatedCount() <= f.opt.MaxViolatedAccept {
					break
				}
				if round == 2 {
					break
				}
				if err := f.calibrate(); err != nil {
					return nil, err
				}
				if f.stopped() {
					break
				}
			}
			if !f.stopped() {
				ph, round = phaseRecovery, 0
			}
		case phaseRecovery:
			f.checkpoint()
			if err := f.recoverArea(); err != nil {
				return nil, err
			}
			if !f.stopped() {
				ph, f.recoveryPos = phaseFinal, 0
			}
		case phaseFinal:
			f.curRound = 0
			f.checkpoint()
			// Recovery under a slightly stale view can overreach: refresh
			// and run one final repair pass so the flow exits at its own
			// timing closure. Skipped when nothing changed since the last
			// calibration.
			if f.opt.Timer == TimerMGBA && (f.finalCalibrated || f.transforms > 0) {
				if !f.finalCalibrated {
					if err := f.calibrate(); err != nil {
						return nil, err
					}
					f.finalCalibrated = true
				}
				if !f.stopped() {
					if err := f.fixViolations(); err != nil {
						return nil, err
					}
				}
			}
			if !f.stopped() {
				ph = phaseDone
			}
		}
		sp.End()
	}

	f.finish()
	if !f.res.Interrupted {
		f.res.StopReason = "completed"
	}
	// Exit checkpoint: for an interrupted run this is the resume point;
	// for a completed run it records phaseDone so a Resume is a no-op.
	f.curPhase, f.curRound = ph, round
	f.checkpoint()
	f.res.Elapsed = time.Since(start)
	return f.res, nil
}

// newFlow sets a flow up on d: the transform registry, a session on the
// design's timing graph, and the corner views. A GBA run has the one view
// of Options.STA; an mGBA run builds its calibrator here and takes one
// view per calibrator corner, with that corner's config.
func newFlow(ctx context.Context, d *netlist.Design, opt Options) (*flow, error) {
	f := &flow{d: d, opt: opt, ctx: ctx, res: &Result{Timer: opt.Timer},
		kindObs: make(map[string]kindMetrics)}
	var err error
	if f.reg, err = buildRegistry(opt); err != nil {
		return nil, err
	}
	for _, k := range f.reg.Kinds() {
		f.kindObs[k] = kindMetricsFor(k)
	}
	if f.g, err = graph.Build(d); err != nil {
		return nil, err
	}
	f.sess = engine.NewSession(f.g)
	if opt.Timer == TimerGBA {
		f.views = []cornerView{{cfg: opt.STA}}
		return f, nil
	}
	if f.cal, err = core.NewCalibrator(f.sess, opt.STA, opt.Core); err != nil {
		return nil, err
	}
	names := core.CornerNames(opt.Core.Corners)
	for i, cfg := range f.cal.CornerConfigs() {
		v := cornerView{cfg: cfg}
		if i < len(names) {
			v.name = names[i]
		}
		f.views = append(f.views, v)
	}
	return f, nil
}

// trial is one timed state of the edited design: its timing graph, a
// session on it, and every corner's Result on that session, in view
// order.
type trial struct {
	g    *graph.Graph
	sess *engine.Session
	rs   []*sta.Result
}

// buildTrial builds the timing graph of the current design and a session
// on it — derived from the flow's current session, whose clock state it
// inherits when the design's clock network is unchanged — and times every
// corner on it.
func (f *flow) buildTrial() (*trial, error) {
	g, err := graph.Build(f.d)
	if err != nil {
		return nil, err
	}
	sess := engine.DeriveSession(f.sess, g)
	return &trial{g: g, sess: sess, rs: f.timeOn(sess)}, nil
}

// adopt makes t the flow's current timed state, returning the superseded
// views' buffers to their session pool.
func (f *flow) adopt(t *trial) {
	f.retire(t.rs)
	f.g, f.sess = t.g, t.sess
}

// calibrate refreshes the mGBA weights (or simply re-analyzes under GBA),
// running against the flow's persistent calibrator so the per-design state
// is never recomputed mid-flow: a recalibration re-enumerates only the
// endpoints reached by the dirty gates' fan-out cones and patches the dirty
// rows of the cached calibration problem, warm-starting the solve from the
// previous correction. A calibrator left stale by an accepted structural
// move is first rebound to the current session (the instance set is
// intact, so the cache survives). Calibration cannot fail the flow: a
// solver fault degrades down core's solver ladder — at worst to identity
// weights (mGBA == GBA) — and is recorded in the Result.
func (f *flow) calibrate() error {
	if f.opt.Timer == TimerGBA {
		f.retire(f.timeOn(f.sess))
		return nil
	}
	t0 := time.Now()
	if f.calStale {
		if err := f.cal.Rebind(f.sess); err != nil {
			return err
		}
	}
	f.calStale = false
	var model *core.Model
	var err error
	if f.opt.ColdRecalibrate {
		model, err = f.cal.Calibrate(f.ctx)
	} else {
		model, err = f.cal.Recalibrate(f.ctx, f.dirtyList())
	}
	if err != nil {
		return err
	}
	f.res.Calibrations++
	obsCalibrations.Inc()
	f.res.CalibElapsed += time.Since(t0)
	if model.Degraded || model.Partial {
		f.res.DegradedCalibrations++
	}
	if model.Fault != "" {
		f.res.Faults = append(f.res.Faults,
			fmt.Sprintf("calibration %d: %s", f.res.Calibrations, model.Fault))
	}
	// View 0 takes the model's own fit, view i its corner i fit. The
	// calibration's baseline GBA stays with the calibrator, which advances
	// it incrementally across recalibrations; the flow must not release
	// it.
	for i := range f.views {
		v := &f.views[i]
		v.r.Release()
		switch {
		case i == 0:
			v.weights, v.r = model.Weights, model.MGBA
		case model.Corners != nil:
			v.weights, v.r = model.Corners[i].Weights, model.Corners[i].MGBA
		default:
			// A calibration abandoned on cancellation fits no corner: the
			// extra corners fall back to identity weights with the
			// selection corner.
			v.weights = model.Weights
			cfg := v.cfg
			cfg.Weights = v.weights
			v.r = f.sess.Run(cfg)
		}
	}
	f.dirty = nil
	f.transforms = 0
	return nil
}

// noteDirty records instances whose timing changed through an accepted
// transform, to seed the next incremental recalibration. GBA runs carry no
// calibration state, so they skip the bookkeeping.
func (f *flow) noteDirty(ids []int) {
	if f.opt.Timer != TimerMGBA {
		return
	}
	if f.dirty == nil {
		f.dirty = make(map[int]bool)
	}
	for _, id := range ids {
		f.dirty[id] = true
	}
}

// dirtyList returns the accumulated dirty set in deterministic order.
func (f *flow) dirtyList() []int {
	if len(f.dirty) == 0 {
		return nil
	}
	out := make([]int, 0, len(f.dirty))
	for id := range f.dirty {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// maybeRecalibrate refreshes stale mGBA weights on cadence.
func (f *flow) maybeRecalibrate() error {
	if f.opt.Timer != TimerMGBA || f.opt.RecalibrateEvery <= 0 {
		return nil
	}
	if f.transforms < f.opt.RecalibrateEvery {
		return nil
	}
	return f.calibrate()
}

// fixViolations is the main repair loop: the worst violating endpoint is
// picked, the registry's repair transforms propose moves on its worst
// path, the first accepted one sticks, and the loop iterates.
// Cancellation is honored between transforms: an in-flight trial always
// completes (and is kept or reverted whole), so an interrupted design is
// never left with a half-applied transform.
func (f *flow) fixViolations() error {
	skip := make(map[int]bool)
	for f.res.Transforms < f.opt.MaxTransforms {
		if f.stopped() {
			return nil
		}
		fi := worstViolator(f.mergedSlack(), skip)
		if fi < 0 {
			break // timing closed (or every violator exhausted)
		}
		if f.violatedCount() <= f.opt.MaxViolatedAccept {
			break
		}
		improved, err := f.repairEndpoint(fi)
		if err != nil {
			return err
		}
		if !improved {
			skip[fi] = true
			continue
		}
		if err := f.maybeRecalibrate(); err != nil {
			return err
		}
	}
	return nil
}

// worstViolator returns the endpoint with the most negative slack outside
// skip, or -1 when none violates.
func worstViolator(slack []float64, skip map[int]bool) int {
	worst, worstSlack := -1, 0.0
	for fi, s := range slack {
		if !skip[fi] && s < worstSlack {
			worst, worstSlack = fi, s
		}
	}
	return worst
}

// validateViolators subjects every timer-violating endpoint to PBA
// path validation — the GBA flow's obligatory reality check — and returns
// how many endpoints truly violate. Its cost is proportional to the number
// of violating endpoints, which is exactly where GBA pessimism hurts.
func (f *flow) validateViolators() int {
	t0 := time.Now()
	f.res.Validations++
	obsValidations.Inc()
	r := f.views[0].r
	an := pba.NewAnalyzer(r)
	real := 0
	for fi, s := range r.Slack {
		if s < 0 && pbaSlack(an, fi) < 0 {
			real++
		}
	}
	f.res.ValidateElapsed += time.Since(t0)
	return real
}

func (f *flow) violatedCount() int {
	n := 0
	// Merged worst-corner slack: an endpoint failing in any corner counts.
	for _, s := range f.mergedSlack() {
		if s < 0 {
			n++
		}
	}
	obsViolated.SetInt(n)
	return n
}

// repairEndpoint offers the endpoint's worst path to each repair
// transform in registry order (budget permitting) and applies the first
// accepted candidate.
func (f *flow) repairEndpoint(fi int) (bool, error) {
	path := transform.WorstPath(f.analysis(), fi)
	if len(path) == 0 {
		return false, nil
	}
	for _, tr := range f.reg.Repair {
		kind := tr.Kind()
		if f.res.Kinds[kind] >= f.budget(kind) {
			continue
		}
		for _, c := range tr.Propose(f.analysis(), fi, path) {
			ok, err := f.tryCandidate(tr, fi, c)
			if err != nil {
				return false, err
			}
			if ok {
				f.noteKind(kind)
				f.noteTransform()
				return true, nil
			}
		}
	}
	return false, nil
}

// tryCandidate applies one candidate, arbitrates acceptance, and unwinds
// rejections, dispatching on the transform's capability bit:
//
//   - connectivity-preserving (upsize, downsize): advance the Result in
//     place over the move's dirty set — the cheap path;
//   - connectivity-changing (buffer, retime): time the trial on a rebuilt
//     session (tryStructural).
func (f *flow) tryCandidate(tr transform.Transform, fi int, c transform.Candidate) (bool, error) {
	a := f.analysis()
	before := snap(f.views[0].r, fi)
	f.markWNS()
	mv, err := tr.Apply(a, c)
	if err != nil {
		return false, err
	}
	if mv == nil {
		return false, nil
	}
	if !tr.ConnectivityChanging() {
		mod := mv.DirtySet()
		f.update(mod)
		if tr.Accept(before, snap(f.views[0].r, fi)) && !f.vetoed(nil) {
			f.noteDirty(mod)
			return true, nil
		}
		f.noteReject(tr.Kind())
		if rerr := mv.Revert(a); rerr == nil {
			f.update(mod)
		} else {
			// The design kept the trial cell: the gate is dirty after all.
			f.noteDirty(mod)
		}
		return false, nil
	}
	return f.tryStructural(tr, fi, mv, before)
}

// tryStructural is the trial protocol for connectivity-changing moves.
// The trial is timed on a session rebuilt over the edited design and
// derived from the current one, so a move that left the clock network
// alone reuses its clock state. On acceptance the flow adopts the trial
// session, marks the calibrator stale (the next calibrate rebinds it
// instead of going cold), and widens the move's dirty set with every
// instance whose graph-derived depth or bounding-box state moved —
// together they cover exactly the instances whose timing the edit could
// have changed, which is what makes the subsequent incremental
// recalibration bit-identical to a cold one. On rejection the move is
// reverted and the pre-trial graph, session, corner views and calibrator
// simply stay in place: the reverted design times identically (a removed
// buffer survives only as a dead instance and an orphan net past the
// graph's arrays, which nothing times).
func (f *flow) tryStructural(tr transform.Transform, fi int, mv transform.Move, before transform.Snapshot) (bool, error) {
	t, err := f.buildTrial()
	if err != nil {
		return false, fmt.Errorf("closure: %s move broke the timing graph: %w", tr.Kind(), err)
	}
	if !tr.Accept(before, snap(t.rs[0], fi)) || f.vetoed(t.rs) {
		f.noteReject(tr.Kind()) // the trial is simply dropped
		return false, mv.Revert(f.analysis())
	}
	dirty := append(append([]int(nil), mv.DirtySet()...), diffSessions(f.sess, t.sess)...)
	f.adopt(t)
	if f.cal != nil {
		f.calStale = true
	}
	f.noteDirty(dirty)
	return true, nil
}

// diffSessions returns the instances whose graph-derived derate inputs —
// GBA depth or GBA bounding-box distance — differ between two sessions
// over the same instance set. A retiming slide can move these outside the
// slide's own neighborhood (depth suffixes and box unions propagate
// against the data flow), and any such instance times differently even
// though nothing around it was edited.
func diffSessions(old, cur *engine.Session) []int {
	var out []int
	for i := range old.Depths.GBA {
		if old.Depths.GBA[i] != cur.Depths.GBA[i] ||
			old.Boxes.GBADistance[i] != cur.Boxes.GBADistance[i] {
			out = append(out, i)
		}
	}
	return out
}

// finish records the final QoR, including a PBA sign-off measurement so
// that GBA-flow and mGBA-flow results are compared on equal footing. It
// always runs, interrupted or not: a cancelled run still reports honest
// final numbers for the state it leaves the design in.
func (f *flow) finish() {
	f.res.TimerWNS = f.views[0].r.WNS
	f.res.TimerTNS = f.views[0].r.TNS
	f.res.ViolatedEndpoints = f.violatedCount()
	f.res.Area = f.d.Area()
	f.res.Leakage = f.d.Leakage()
	f.res.Buffers = f.d.BufferCount()
	f.res.Weights = f.views[0].weights
	f.res.Corners = f.cornerQoR()

	f.res.SignoffWNS, f.res.SignoffTNS = signoff(f.sess, f.opt.STA)
}
