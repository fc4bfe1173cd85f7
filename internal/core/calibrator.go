package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"mgba/internal/engine"
	"mgba/internal/obs"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/solver"
	"mgba/internal/sparse"
	"mgba/internal/sta"
)

// Calibrator is a persistent calibration session bound to an
// engine.Session, mirroring the engine's immutable-vs-per-run split on the
// calibration side. A cold Calibrate runs the full pipeline and caches its
// intermediate state: the baseline GBA result, the per-endpoint selected
// path sets with their golden retimings, the assembled Eq. (9) matrix and
// its column mapping. A subsequent Recalibrate, fed the set of instances
// the closure flow touched since, then redoes only the invalidated part:
// the baseline advances through the engine's incremental update, only
// endpoints whose fan-in cone contains a touched gate are re-enumerated
// and retimed, only their rows of A are patched in place, and the solve is
// warm-started from the previous fit. Every shortcut is exact — an
// incremental Recalibrate returns bit-identical weights to a cold
// Calibrate of the same design state — so the cache is purely a
// performance artifact.
//
// The cache is dropped (forcing the next call cold) whenever its validity
// cannot be guaranteed: a cancelled or faulted calibration, a dirty set
// touching the clock network, a selection truncated by the MaxPaths cap.
// Each such cold fallback is counted under its reason (coldReason).
// Structural edits (buffer insertion, retiming) call for a rebuilt
// engine.Session; Rebind the calibrator to it and the cache carries over.
//
// A Calibrator is not safe for concurrent use. Recalibrate mutates the
// cached matrix in place, so the Problem of a previously returned Model is
// stale after the next (re)calibration; the Model's weights and timing
// results remain valid.
type Calibrator struct {
	sess *engine.Session
	opt  Options
	pair ViewPair

	// corners holds one state per analysis corner, each with its own bound
	// view pair instances. corners[0] is the selection corner
	// (Options.Corners[0], or the plain config without a corner set): the
	// selection is enumerated on its baseline and its fit is the model's
	// own. A single-corner calibrator has only corners[0].
	corners []*cornerState

	// Cache of the last healthy calibration; eps == nil means no cache.
	// Each corner holds its cached baseline and retimings.
	mgba     *sta.Result // private weighted re-analysis, advanced via Update
	mweights []float64   // weights mgba was last evaluated under
	oneShot  bool        // throwaway calibrator: skip the weighted cache
	eps      []int       // tracked endpoints: D.FFs positions, FF order
	slotOf   map[int]int // D.FFs position -> index into eps/groups
	groups   [][]*pba.Path
	targets  [][]float64 // selection corner, per slot, parallel to groups
	guards   [][]float64
	mat      *sparse.Matrix
	cols     []int // column -> instance ID

	// coldWhy is the reason the cache was last dropped by Rebind, reported
	// by the cold calibration that follows.
	coldWhy coldReason

	stats CalibratorStats
}

// CalibratorStats counts what the calibrator actually did, for benchmarks
// and tests that assert the incremental path was taken.
type CalibratorStats struct {
	Cold                  int // full-pipeline calibrations (incl. fallbacks)
	Incremental           int // recalibrations served from the cache
	EndpointsReenumerated int // endpoint searches run by incremental calls
	RowsPatched           int // matrix rows spliced in place
	MatrixRebuilds        int // incremental calls that rebuilt A from cache
}

// NewCalibrator validates the configuration, resolves the view pair
// named by Options.ViewPair and binds a calibration session to s.
// Options.WarmWeights, when set, seeds the first solve.
func NewCalibrator(s *engine.Session, cfg sta.Config, opt Options) (*Calibrator, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil session")
	}
	return newBoundCalibrator(s, cfg, opt, false)
}

// newBoundCalibrator is the shared constructor: validate, resolve the
// pair, instantiate its views on the session for every corner.
func newBoundCalibrator(s *engine.Session, cfg sta.Config, opt Options, oneShot bool) (*Calibrator, error) {
	if err := validateOptions(cfg, opt); err != nil {
		return nil, err
	}
	vp, err := LookupViewPair(opt.ViewPair)
	if err != nil {
		return nil, err
	}
	specs := opt.Corners
	if len(specs) == 0 {
		// The identity spec: its config is cfg itself, so an N=1 set with
		// the identity spec is the plain pipeline bit for bit.
		specs = []CornerSpec{{}}
	}
	c := &Calibrator{sess: s, opt: opt, pair: vp, oneShot: oneShot}
	for _, spec := range specs {
		// Derive every corner's analysis config once, up front: the scaled
		// derate tables are pointer-stable for the calibrator's lifetime,
		// so the engine's clock-state cache hits on every run of every
		// corner.
		ccfg, err := cornerConfig(cfg, s.G.D, spec)
		if err != nil {
			return nil, err
		}
		cheap, golden, err := vp.Bind(s, ccfg, opt)
		if err != nil {
			return nil, err
		}
		c.corners = append(c.corners, &cornerState{
			spec: spec, cfg: ccfg, cheap: cheap, golden: golden, warm: opt.WarmWeights,
		})
	}
	return c, nil
}

// Pair returns the name of the view pair the calibrator corrects
// between.
func (c *Calibrator) Pair() string { return c.pair.Name() }

// Stats returns the calibrator's work counters.
func (c *Calibrator) Stats() CalibratorStats { return c.stats }

// CornerConfigs returns every corner's analysis config (Weights unset),
// selection corner first: the configs the calibrator's fits and views are
// timed under. The scaled derate tables are shared by pointer, so a caller
// timing a corner under its config hits the engine's clock-state cache.
func (c *Calibrator) CornerConfigs() []sta.Config {
	out := make([]sta.Config, len(c.corners))
	for i, cs := range c.corners {
		out[i] = cs.cfg
	}
	return out
}

// SetWarmWeights replaces the per-instance weights seeding each corner's
// next solve: w[i] seeds corner i, selection corner first, and corners
// past len(w) keep theirs (the closure flow uses it to carry a
// checkpointed run's weights into a resumed one).
func (c *Calibrator) SetWarmWeights(w ...[]float64) {
	for i, wi := range w {
		if i < len(c.corners) {
			c.corners[i].warm = append([]float64(nil), wi...)
		}
	}
}

// Rebind moves the calibrator to a new engine.Session after a structural
// edit that kept the flip-flop list and the clock network — a register
// retiming slide, a buffer insertion on a data net. The per-endpoint path
// cache survives: the caller owes the next Recalibrate a dirty set
// covering every instance the edit rewired or created, plus every
// instance whose graph-derived state (depth, bounding box) it moved, whose
// fan-out cone then covers every endpoint whose cached paths could have
// changed — clean endpoints' enumerations, retimings and matrix rows are
// provably still exact. Appended instances (an inserted buffer) enter the
// fit as new columns once a re-enumerated path crosses them, through the
// same prefix-extension column growth as any new path gate; the warm
// start needs no padding for them, since the solve seeds an instance past
// the warm weights at the neutral weight 1. The cached
// baselines are tied to the old session's graph, so the GBA baselines are
// re-run on the new session and the private weighted baseline is dropped
// (the next Recalibrate re-derives it).
//
// A new session whose graph does not extend the bound one — instances
// removed, or the flip-flop list changed — voids the cache entirely;
// Rebind then degrades to an Invalidate and the next call runs cold.
func (c *Calibrator) Rebind(s *engine.Session) error {
	if s == nil {
		return fmt.Errorf("core: rebind to nil session")
	}
	grows := c.sess != nil && s.G.Extends(c.sess.G)
	c.sess = s
	for _, cs := range c.corners {
		cs.cheap.Rebind(s)
		if err := cs.golden.Rebind(s); err != nil {
			return err
		}
		cs.gba.Release()
		cs.gba = nil
	}
	if !grows {
		c.Invalidate()
		c.coldWhy = coldShapeChange
		return nil
	}
	c.mgba.Release()
	c.mgba = nil
	c.mweights = nil
	if c.eps != nil {
		obsCalibRebinds.Inc()
		for _, cs := range c.corners {
			cs.gba = cs.cheap.Run()
		}
	}
	return nil
}

// Invalidate drops every cached artifact, forcing the next call cold. The
// selection corner's cached baseline is not released here — the last
// returned Model may still reference it. The other corners' baselines and
// the weighted cache are private (callers only ever receive clones or
// fresh runs), so their buffers go straight back to the session pool.
func (c *Calibrator) Invalidate() {
	c.mgba.Release()
	c.mgba, c.mweights = nil, nil
	c.eps, c.slotOf, c.groups = nil, nil, nil
	c.targets, c.guards, c.mat, c.cols = nil, nil, nil, nil
	for i, cs := range c.corners {
		if i > 0 {
			cs.gba.Release()
		}
		cs.gba, cs.tgroups = nil, nil
	}
}

// cached reports whether Recalibrate can run incrementally.
func (c *Calibrator) cached() bool {
	if c.eps == nil {
		return false
	}
	for _, cs := range c.corners {
		if cs.gba == nil || cs.tgroups == nil {
			return false
		}
	}
	return true
}

// Calibrate runs a full cold calibration and (re)fills the cache.
func (c *Calibrator) Calibrate(ctx context.Context) (*Model, error) {
	return c.cold(ctx, nil, coldRequested)
}

// errCancelled aborts the cold retiming loop on context cancellation; the
// caller abandons the model.
var errCancelled = errors.New("core: calibration cancelled")

// cold is the full pipeline plus cache management; why is counted and
// emitted as the reason it ran. Endpoints are enumerated through
// pathsel.EnumerateStream — in shards of Options.StreamShard, or as one
// shard, which is exactly pathsel.Enumerate — and every path is retimed
// under every corner's golden view and appended as one row of every
// corner's Eq. (9) system on the spot, columns numbered by first
// occurrence. A shard is then either kept as pointer groups (the model's
// Selection and Timings, and the incremental cache) or, streamed, encoded
// into the model's slab Bank, after which its pointer paths are garbage:
// peak memory is one shard plus the assembled systems. Both forms run
// each corner's per-path computations in the same order, so they are
// bit-identical at every Parallelism and shard size.
//
// Unstreamed, the whole population is one shard, so a binding MaxPaths cap
// is applied as the round-robin truncation of pathsel.Population.TopK
// before retiming; the truncated selection is not grouped per endpoint and
// is not cached. Streamed, a population over the cap is an error. sel
// non-nil substitutes an explicit selection (the §3.2 scheme study), fed
// through the same loop as one uncached group.
func (c *Calibrator) cold(ctx context.Context, sel *pathsel.Selection, why coldReason) (*Model, error) {
	if c.eps != nil {
		// The previous cached baseline belongs to this calibrator alone
		// (callers were handed it inside now-superseded models); recycle
		// its buffers before running a fresh analysis.
		c.corners[0].gba.Release()
	}
	c.Invalidate()
	c.coldWhy = ""
	c.stats.Cold++
	obsCalibCold.Inc()
	why.note()
	sp := obs.StartSpan("calibrate.cold")
	defer sp.End()
	m := c.newModel(c.corners[0])
	// One baseline timing run is the minimum for a usable model and the
	// atomic unit of cancellation: it always runs to completion.
	m.GBA = c.corners[0].cheap.Run()
	if cancelled(ctx) {
		return c.finish(m.abandon("cancelled before path selection")), nil
	}
	spEnum := sp.Child("enumerate")
	defer spEnum.End()
	cols := &columns{of: map[int]int{}}
	timers := make([]PathTimer, len(c.corners))
	systems := make([]*eqSystem, len(c.corners))
	for i, cs := range c.corners {
		base := m.GBA
		if i > 0 {
			cs.gba = cs.cheap.Run()
			base = cs.gba
		}
		// Re-derive the golden view from the current design state: a cold
		// calibration never trusts an incremental mirror (the default
		// pair's provider has nothing to derive; the routed pair rebuilds
		// its twin).
		if err := cs.golden.Refresh(); err != nil {
			return nil, err
		}
		t, err := cs.golden.Timer(base)
		if err != nil {
			return nil, err
		}
		timers[i], systems[i] = t, c.newSystem(cs, base, cols, 0)
	}

	streamed := sel == nil && c.opt.StreamShard > 0
	cacheable := sel == nil && !streamed
	var bank *pathsel.Bank
	if streamed {
		bank = pathsel.NewBank(0)
	}
	var eps []int
	var groups [][]*pba.Path
	timings := make([][]*pba.Timing, len(c.corners)) // per corner, row order; unstreamed only
	rows, retimed := 0, 0
	keep := func(sh *pathsel.Shard) error {
		n := 0
		for _, g := range sh.Groups {
			n += len(g)
		}
		if sel == nil && c.opt.MaxPaths > 0 && rows+n > c.opt.MaxPaths {
			if streamed {
				// Rejected before burning golden retimes on a shard that can
				// only end in the same error.
				return fmt.Errorf("core: streamed population exceeds MaxPaths (%d > %d); raise MaxPaths or lower K — streaming cannot reproduce the round-robin truncation", rows+n, c.opt.MaxPaths)
			}
			top := pathsel.FromGroups(sh.Endpoints, sh.Groups, c.opt.K).TopK(c.opt.K, c.opt.MaxPaths)
			sh = &pathsel.Shard{Groups: [][]*pba.Path{top.Paths}}
			n, cacheable = len(top.Paths), false
		}
		// Corner-major, so each retiming sweep stays on one corner's
		// baseline; the selection corner's sweep numbers the columns.
		for i, s := range systems {
			s.grow(n)
			if !streamed {
				timings[i] = slices.Grow(timings[i], n)
			}
			for _, g := range sh.Groups {
				for _, p := range g {
					if retimed%256 == 0 && cancelled(ctx) {
						return errCancelled
					}
					retimed++
					if i == 0 {
						cols.add(p)
					}
					tm := timers[i].Retime(p)
					if err := s.add(p, tm); err != nil {
						return err
					}
					if !streamed {
						timings[i] = append(timings[i], tm)
					}
				}
			}
		}
		rows += n
		if streamed {
			return bank.AppendShard(sh)
		}
		eps = append(eps, sh.Endpoints...)
		groups = append(groups, sh.Groups...)
		return nil
	}
	var err error
	if sel != nil {
		err = keep(&pathsel.Shard{Groups: [][]*pba.Path{sel.Paths}})
	} else {
		err = pathsel.EnumerateStream(pba.NewAnalyzer(m.GBA), c.opt.K, c.opt.StreamShard, keep)
	}
	spEnum.End()
	if errors.Is(err, errCancelled) {
		return c.finish(m.abandon("cancelled during golden retiming")), nil
	}
	if err != nil {
		return nil, err
	}
	switch {
	case sel != nil:
		m.Selection = sel
	case streamed:
		m.Selection = &pathsel.Selection{Scheme: "per-endpoint-top-k-streamed"}
	default:
		m.Selection = &pathsel.Selection{Scheme: "per-endpoint-top-k", Paths: slices.Concat(groups...)}
	}
	m.Timings = timings[0]
	if rows == 0 {
		// Nothing violates: mGBA degenerates to the cheap baseline.
		return c.degenerate(m), nil
	}
	m.Columns = cols.ids
	if streamed {
		m.Bank, m.GoldenSlack = bank, systems[0].golden
	}
	spAsm := sp.Child("assemble")
	for _, s := range systems {
		if err := s.build(); err != nil {
			spAsm.End()
			return nil, err
		}
	}
	spAsm.End()
	m.Problem = systems[0].prob
	if err := c.fit(ctx, sp, m, systems[1:], nil); err != nil {
		return nil, err
	}
	if cacheable && !m.Partial && m.Fault == "" {
		c.fillCache(m, eps, groups, timings)
	}
	return m, nil
}

// newModel starts a model of the current design state on corner cs,
// seeded with the corner's warm start.
func (c *Calibrator) newModel(cs *cornerState) *Model {
	m := &Model{G: c.sess.G, Session: c.sess, Cfg: cs.cfg, Opt: c.opt, Pair: c.pair.Name()}
	m.Opt.WarmWeights = cs.warm
	m.Weights = identity(len(m.G.D.Instances))
	return m
}

// fit is the tail cold and incremental calibration share: solve the
// selection corner's system (inside the stacked system under a joint
// fit), fit the extra corners' systems, validate the fitted weights and
// merge the worst-corner view. dirty is the incremental call's dirty set
// (nil when cold), over which a cached weighted baseline advances.
func (c *Calibrator) fit(ctx context.Context, sp *obs.Span, m *Model, extras []*eqSystem, dirty []int) error {
	spSolve := sp.Child("solve")
	var err error
	if c.opt.JointFit && len(extras) > 0 {
		err = c.jointFit(ctx, m, extras)
	} else {
		err = m.solve(ctx)
	}
	if err == nil {
		err = c.fitCorners(ctx, m, extras)
	}
	spSolve.End()
	if err != nil {
		return err
	}
	spVal := sp.Child("validate")
	m.MGBA = c.validate(m, dirty)
	spVal.End()
	c.mergeWorst(m)
	if m.Partial || m.Fault != "" {
		// A cut-short or faulted fit may have left the patched system in a
		// state we cannot vouch for; force the next calibration cold.
		c.Invalidate()
	}
	c.finish(m)
	return nil
}

// validate re-analyzes the selection corner under the fitted weights.
// With a cached weighted baseline it advances that instead of re-running
// the full weighted analysis: the only instances whose weighted view
// changed are the dirty ones and those whose weight moved since the cached
// evaluation, so Update over their union is bitwise equal to a fresh Run.
// The caller gets an independent clone; the original stays with the
// calibrator for the next round.
func (c *Calibrator) validate(m *Model, dirty []int) *sta.Result {
	wcfg := c.corners[0].cfg
	wcfg.Weights = m.Weights
	if c.mgba == nil {
		return c.sess.Run(wcfg)
	}
	wdirty := append([]int(nil), dirty...)
	for i, w := range c.mweights {
		if m.Weights[i] != w {
			wdirty = append(wdirty, i)
		}
	}
	c.mgba.Cfg = wcfg
	c.mgba.Update(wdirty)
	copy(c.mweights, m.Weights)
	return c.mgba.Clone()
}

// degenerate finishes a model with nothing to calibrate on: every
// corner's mGBA view is its own unweighted cheap baseline, and the cache
// is dropped — an empty matrix is not worth patching back to life.
func (c *Calibrator) degenerate(m *Model) *Model {
	m.MGBA = m.GBA
	if len(c.corners) > 1 {
		m.Corners = make([]*CornerFit, len(c.corners))
		for i, cs := range c.corners[1:] {
			// The fit takes the corner's baseline over outright: callers
			// may Release it.
			m.Corners[i+1] = &CornerFit{
				Spec: cs.spec, Cfg: cs.cfg,
				Weights: identity(len(m.G.D.Instances)),
				MGBA:    cs.gba,
			}
			cs.gba = nil
		}
		c.mergeWorst(m)
	}
	c.Invalidate()
	return c.finish(m)
}

// finish records the model's weights as the next solve's warm start —
// exactly the closure flow's historical behavior of feeding each
// calibration's weights into the next via Options.WarmWeights.
func (c *Calibrator) finish(m *Model) *Model {
	c.corners[0].warm = m.Weights
	return m
}

// fillCache adopts a healthy cold model's intermediates as the
// incremental cache: the per-endpoint groups, every corner's retimings
// regrouped per slot, the selection corner's per-slot targets and guards,
// matrix, column map and baseline.
func (c *Calibrator) fillCache(m *Model, eps []int, groups [][]*pba.Path, timings [][]*pba.Timing) {
	c.eps, c.groups = eps, groups
	c.slotOf = make(map[int]int, len(eps))
	for i, fi := range eps {
		c.slotOf[fi] = i
	}
	c.targets = bySlot(m.Problem.B, groups)
	c.guards = bySlot(m.Problem.Guard, groups)
	for i, cs := range c.corners {
		cs.tgroups = bySlot(timings[i], groups)
	}
	c.corners[0].gba = m.GBA
	c.mat, c.cols = m.Problem.A, m.Columns
	if !c.oneShot {
		c.mgba = m.MGBA.Clone()
		c.mweights = append([]float64(nil), m.Weights...)
	}
}

// bySlot cuts a row-order slice into per-slot views, one per group.
func bySlot[T any](flat []T, groups [][]*pba.Path) [][]T {
	out := make([][]T, len(groups))
	off := 0
	for s, g := range groups {
		n := len(g)
		out[s] = flat[off : off+n : off+n]
		off += n
	}
	return out
}

// Recalibrate re-fits the weights after the given instances changed (gate
// or flip-flop resizes; anything that left the graph's connectivity and
// clock network intact). With a valid cache it runs the incremental path —
// update the baselines over the dirty cone, re-enumerate the affected
// endpoints and retime them under every corner, patch their rows of A,
// warm-start the solve — and returns a model bit-identical to a cold
// Calibrate of the same state. Without one (first call, after a fault,
// after Invalidate) it falls back to a cold calibration, and is counted
// as cold only.
func (c *Calibrator) Recalibrate(ctx context.Context, dirty []int) (*Model, error) {
	if !c.cached() {
		why := c.coldWhy
		if why == "" {
			why = coldNoCache
		}
		return c.cold(ctx, nil, why)
	}
	n := c.sess.G.NumInstances()
	for _, id := range dirty {
		// An instance outside the bound graph, or a touched clock cell:
		// the cache's clock-invariance assumptions are void, go cold.
		if id < 0 || id >= n {
			return c.cold(ctx, nil, coldUnknownInstance)
		}
		if c.sess.G.IsClock(id) {
			return c.cold(ctx, nil, coldClockInstance)
		}
	}
	sp := obs.StartSpan("calibrate.recalibrate")
	defer sp.End()
	for _, cs := range c.corners {
		cs.gba.Update(dirty)
		if err := cs.golden.Update(dirty); err != nil {
			// The incremental mirror failed; a cold calibration re-derives
			// the golden view from scratch instead.
			sp.End()
			return c.cold(ctx, nil, coldGoldenUpdate)
		}
	}
	m := c.newModel(c.corners[0])
	m.GBA = c.corners[0].gba
	spEnum := sp.Child("enumerate")
	var slots []int
	for _, fi := range c.sess.FanoutEndpoints(dirty) {
		if s, ok := c.slotOf[fi]; ok {
			slots = append(slots, s)
		}
	}
	sort.Ints(slots)
	affected := make([]int, len(slots))
	for i, s := range slots {
		affected[i] = c.eps[s]
	}
	zero := 0.0
	fresh := pba.NewAnalyzer(m.GBA).KWorstAll(affected, c.opt.K, &zero, m.Cfg.Parallelism)
	c.stats.EndpointsReenumerated += len(affected)
	obsEndpointsReenum.Add(int64(len(affected)))
	total := c.mat.Rows()
	for i, s := range slots {
		total += len(fresh[i]) - len(c.groups[s])
	}
	if c.opt.MaxPaths > 0 && total > c.opt.MaxPaths {
		// The cap now binds: the cold selection would be a round-robin
		// truncation, which the per-endpoint cache cannot reproduce.
		spEnum.End()
		sp.End()
		return c.cold(ctx, nil, coldPathCap)
	}
	// Past the last cold fallback: this call is incremental.
	c.stats.Incremental++
	obsCalibIncremental.Inc()
	if cancelled(ctx) {
		spEnum.End()
		c.Invalidate()
		return c.finish(m.abandon("cancelled before path selection")), nil
	}
	for i, s := range slots {
		c.groups[s] = fresh[i]
	}
	m.Selection = &pathsel.Selection{Scheme: "per-endpoint-top-k"}
	if total == 0 {
		// All violations repaired.
		spEnum.End()
		return c.degenerate(m), nil
	}
	// Retime the re-enumerated slots under every corner's golden view.
	// Clean slots' cached retimings are provably still exact: a dirty
	// instance's fanout cone covers every endpoint whose paths could
	// contain it.
	retimed := 0
	for _, cs := range c.corners {
		timer, err := cs.golden.Timer(cs.gba)
		if err != nil {
			spEnum.End()
			c.Invalidate()
			return nil, err
		}
		for _, s := range slots {
			tg := make([]*pba.Timing, len(c.groups[s]))
			for j, p := range c.groups[s] {
				if retimed%256 == 0 && cancelled(ctx) {
					spEnum.End()
					c.Invalidate()
					return c.finish(m.abandon("cancelled during golden retiming")), nil
				}
				tg[j] = timer.Retime(p)
				retimed++
			}
			cs.tgroups[s] = tg
		}
	}
	spEnum.End()
	spAsm := sp.Child("assemble")
	cm := &columns{of: make(map[int]int)}
	m.Selection.Paths = make([]*pba.Path, 0, total)
	m.Timings = make([]*pba.Timing, 0, total)
	for s, g := range c.groups {
		for _, p := range g {
			cm.add(p)
		}
		m.Selection.Paths = append(m.Selection.Paths, g...)
		m.Timings = append(m.Timings, c.corners[0].tgroups[s]...)
	}
	m.Columns = cm.ids
	var err error
	m.Problem, err = c.refreshRows(m, slots, cm)
	extras := make([]*eqSystem, len(c.corners)-1)
	for i := 0; err == nil && i < len(extras); i++ {
		extras[i], err = c.groupSystem(c.corners[i+1], cm, total)
	}
	spAsm.End()
	if err != nil {
		return nil, err
	}
	if err := c.fit(ctx, sp, m, extras, dirty); err != nil {
		return nil, err
	}
	return m, nil
}

// groupSystem assembles corner cs's system over the cached groups from
// the corner's cached retimings.
func (c *Calibrator) groupSystem(cs *cornerState, cm *columns, rows int) (*eqSystem, error) {
	sys := c.newSystem(cs, cs.gba, cm, rows)
	for s, g := range c.groups {
		for j, p := range g {
			if err := sys.add(p, cs.tgroups[s][j]); err != nil {
				return nil, err
			}
		}
	}
	return sys, sys.build()
}

// refreshRows brings the selection corner's cached matrix and per-slot
// targets and guards up to date for the re-enumerated slots and returns
// the patched system. When the new column order extends the old one (the
// common case — new gates on dirty paths append columns), only the dirty
// slots' rows are spliced in place; when columns were reordered, the
// system is rebuilt from the cached retimings, still without touching
// clean endpoints' enumerations or retimings.
func (c *Calibrator) refreshRows(m *Model, slots []int, cm *columns) (*solver.Problem, error) {
	prefixOK := len(cm.ids) >= len(c.cols) && slices.Equal(cm.ids[:len(c.cols)], c.cols)
	c.cols = cm.ids
	if !prefixOK {
		c.stats.MatrixRebuilds++
		sys, err := c.groupSystem(c.corners[0], cm, len(m.Timings))
		if err != nil {
			return nil, err
		}
		c.mat = sys.prob.A
		c.targets = bySlot(sys.prob.B, c.groups)
		c.guards = bySlot(sys.prob.Guard, c.groups)
		return sys.prob, nil
	}
	if err := c.mat.GrowCols(len(cm.ids)); err != nil {
		return nil, err
	}
	cs := c.corners[0]
	targets := make([]float64, 0, len(m.Timings))
	guards := make([]float64, 0, len(m.Timings))
	lo := 0 // first row of slot s: rows before it already have their new layout
	for s, g := range c.groups {
		if len(slots) > 0 && slots[0] == s {
			slots = slots[1:]
			nOld, nNew := len(c.targets[s]), len(g)
			c.targets[s], c.guards[s] = make([]float64, nNew), make([]float64, nNew)
			for j, p := range g {
				idx, val, target, guard := cs.cheap.Row(m.GBA, m.G, c.opt.Epsilon, cm.of, p, cs.tgroups[s][j])
				var err error
				if j < nOld {
					err = c.mat.SetRow(lo+j, idx, val)
				} else {
					err = c.mat.InsertRow(lo+j, idx, val)
				}
				if err != nil {
					return nil, err
				}
				c.stats.RowsPatched++
				c.targets[s][j], c.guards[s][j] = target, guard
			}
			for j := nOld; j > nNew; j-- {
				if err := c.mat.RemoveRow(lo + nNew); err != nil {
					return nil, err
				}
			}
		}
		targets = append(targets, c.targets[s]...)
		guards = append(guards, c.guards[s]...)
		lo += len(g)
	}
	return c.problem(c.mat, targets, guards)
}
