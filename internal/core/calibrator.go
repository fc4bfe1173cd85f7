package core

import (
	"context"
	"errors"
	"fmt"
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
	cfg  sta.Config
	opt  Options
	warm []float64 // per-instance weights seeding the next solve

	// The bound view pair: cheap produces the baseline the selection is
	// enumerated on and the Eq. (9) rows; golden produces the fit targets.
	pair   ViewPair
	cheap  CheapView
	golden GoldenProvider

	// corners holds the extra (non-selection) corners of a multi-corner
	// calibration, each with its own bound view pair instances; empty for
	// a single-corner calibrator. The calibrator's own cfg/cheap/golden
	// are the selection corner (Options.Corners[0]).
	corners []*cornerState

	// Cache of the last healthy calibration; eps == nil means no cache.
	gba      *sta.Result // cached baseline, advanced in place via Update
	mgba     *sta.Result // private weighted re-analysis, advanced via Update
	mweights []float64   // weights mgba was last evaluated under
	oneShot  bool        // throwaway calibrator: skip the weighted cache
	eps      []int       // tracked endpoints: D.FFs positions, FF order
	slotOf   map[int]int // D.FFs position -> index into eps/groups
	groups   [][]*pba.Path
	tgroups  [][]*pba.Timing
	targets  [][]float64 // per slot, parallel to groups
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
// pair, instantiate its views on the session.
func newBoundCalibrator(s *engine.Session, cfg sta.Config, opt Options, oneShot bool) (*Calibrator, error) {
	if err := validateOptions(cfg, opt); err != nil {
		return nil, err
	}
	vp, err := LookupViewPair(opt.ViewPair)
	if err != nil {
		return nil, err
	}
	if sp, ok := vp.(strictPair); ok && sp.StrictSafety() {
		// A cross-stage pair cannot uphold Eq. (5) with the soft penalty
		// alone; force the exact enforcement the pair declares it needs.
		opt.StrictSafety = true
	}
	// Derive every corner's analysis config once, up front: the scaled
	// derate tables are pointer-stable for the calibrator's lifetime, so
	// the engine's clock-state cache hits on every run of every corner.
	var cornerCfgs []sta.Config
	if len(opt.Corners) > 0 {
		cornerCfgs = make([]sta.Config, len(opt.Corners))
		for i, spec := range opt.Corners {
			ccfg, err := cornerConfig(cfg, s.G.D, spec)
			if err != nil {
				return nil, err
			}
			cornerCfgs[i] = ccfg
		}
		// Corners[0] is the selection corner: the calibrator's own views
		// run under it, so an N=1 set with the identity spec is the plain
		// single-corner pipeline bit for bit.
		cfg = cornerCfgs[0]
		if len(opt.Corners) > 1 {
			// With several corners the soft penalty cannot vouch for all of
			// them; force the exact Eq. (5) enforcement on every fit.
			opt.StrictSafety = true
		}
	}
	cheap, golden, err := vp.Bind(s, cfg, opt)
	if err != nil {
		return nil, err
	}
	c := &Calibrator{
		sess: s, cfg: cfg, opt: opt, warm: opt.WarmWeights,
		pair: vp, cheap: cheap, golden: golden, oneShot: oneShot,
	}
	for i := 1; i < len(cornerCfgs); i++ {
		ccheap, cgolden, err := vp.Bind(s, cornerCfgs[i], opt)
		if err != nil {
			return nil, err
		}
		c.corners = append(c.corners, &cornerState{
			spec: opt.Corners[i], cfg: cornerCfgs[i],
			cheap: ccheap, golden: cgolden, warm: opt.WarmWeights,
		})
	}
	return c, nil
}

// Pair returns the name of the view pair the calibrator corrects
// between.
func (c *Calibrator) Pair() string { return c.pair.Name() }

// Stats returns the calibrator's work counters.
func (c *Calibrator) Stats() CalibratorStats { return c.stats }

// SetWarmWeights replaces the per-instance weights seeding the next solve
// (the closure flow uses it to carry weights across a session rebuild).
func (c *Calibrator) SetWarmWeights(w []float64) {
	if w == nil {
		c.warm = nil
		return
	}
	c.warm = append([]float64(nil), w...)
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
// baselines are tied to the old session's graph, so the GBA baseline is
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
	c.cheap.Rebind(s)
	if err := c.golden.Rebind(s); err != nil {
		return err
	}
	if c.gba != nil {
		c.gba.Release()
		c.gba = nil
	}
	for _, cs := range c.corners {
		cs.cheap.Rebind(s)
		if err := cs.golden.Rebind(s); err != nil {
			return err
		}
		if cs.gba != nil {
			cs.gba.Release()
			cs.gba = nil
		}
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
		c.gba = c.cheap.Run()
		for _, cs := range c.corners {
			cs.gba = cs.cheap.Run()
		}
	}
	return nil
}

// Invalidate drops every cached artifact, forcing the next call cold. The
// cached baseline is not released here — the last returned Model may still
// reference it. The weighted cache is private (callers only ever receive
// clones of it), so its buffers go straight back to the session pool.
func (c *Calibrator) Invalidate() {
	c.gba = nil
	c.mgba.Release()
	c.mgba = nil
	c.mweights = nil
	c.eps = nil
	c.slotOf = nil
	c.groups = nil
	c.tgroups = nil
	c.targets = nil
	c.guards = nil
	c.mat = nil
	c.cols = nil
	for _, cs := range c.corners {
		cs.tgroups = nil
		cs.flat = nil
	}
}

// Calibrate runs a full cold calibration and (re)fills the cache.
func (c *Calibrator) Calibrate(ctx context.Context) (*Model, error) {
	return c.cold(ctx, nil, coldRequested)
}

// cold is the full pipeline — identical to the historical one-shot
// calibrate — plus cache management. sel non-nil substitutes an explicit
// selection (the §3.2 scheme study), which cannot be cached because its
// paths are not grouped per endpoint. why is counted and emitted as the
// reason the cold pipeline ran.
func (c *Calibrator) cold(ctx context.Context, sel *pathsel.Selection, why coldReason) (*Model, error) {
	if c.gba != nil {
		// The previous cached baseline belongs to this calibrator alone
		// (callers were handed it inside now-superseded models); recycle
		// its buffers before running a fresh analysis.
		c.gba.Release()
	}
	for _, cs := range c.corners {
		if cs.gba != nil {
			cs.gba.Release()
			cs.gba = nil
		}
	}
	c.Invalidate()
	c.coldWhy = ""
	c.stats.Cold++
	obsCalibCold.Inc()
	why.note()
	sp := obs.StartSpan("calibrate.cold")
	defer sp.End()
	m := &Model{G: c.sess.G, Session: c.sess, Cfg: c.cfg, Opt: c.opt, Pair: c.pair.Name(), SafetyScale: 1}
	m.Opt.WarmWeights = c.warm
	m.cheap = c.cheap
	// One baseline timing run is the minimum for a usable model and the
	// atomic unit of cancellation: it always runs to completion.
	m.GBA = c.cheap.Run()
	m.Weights = identity(len(m.G.D.Instances))
	if cancelled(ctx) {
		return c.finish(m.abandon("cancelled before path selection")), nil
	}
	// Re-derive the golden view from the current design state: a cold
	// calibration never trusts an incremental mirror (the default pair's
	// provider has nothing to derive; the routed pair rebuilds its twin).
	if err := c.golden.Refresh(); err != nil {
		return nil, err
	}
	if sel == nil && c.opt.StreamShard > 0 {
		return c.coldStream(ctx, sp, m)
	}
	an := pba.NewAnalyzer(m.GBA)
	spEnum := sp.Child("enumerate")
	var pop *pathsel.Population
	if sel != nil {
		m.Selection = sel
	} else {
		pop = pathsel.Enumerate(an, c.opt.K)
		m.Selection = pop.TopK(c.opt.K, c.opt.MaxPaths)
	}
	if len(m.Selection.Paths) == 0 {
		spEnum.End()
		// Nothing violates: mGBA degenerates to the cheap baseline.
		m.MGBA = m.GBA
		if c.multiCorner() {
			c.degenerateCorners(m)
			c.mergeWorst(m)
		}
		return c.finish(m), nil
	}
	timer, err := c.golden.Timer(m.GBA)
	if err != nil {
		spEnum.End()
		return nil, err
	}
	m.Timings = make([]*pba.Timing, len(m.Selection.Paths))
	for i, p := range m.Selection.Paths {
		if i%256 == 0 && cancelled(ctx) {
			spEnum.End()
			return c.finish(m.abandon("cancelled during golden retiming")), nil
		}
		m.Timings[i] = timer.Retime(p)
	}
	spEnum.End()
	spAsm := sp.Child("assemble")
	if err := m.assemble(); err != nil {
		spAsm.End()
		return nil, err
	}
	spAsm.End()
	spSolve := sp.Child("solve")
	if !(c.multiCorner() && c.opt.JointFit) {
		// Under a joint fit the selection corner's rows are solved inside
		// the stacked system instead of standalone.
		if err := m.solve(ctx); err != nil {
			spSolve.End()
			return nil, err
		}
	}
	if c.multiCorner() {
		if err := c.calibrateCorners(ctx, m); err != nil {
			spSolve.End()
			if err == errCornersCancelled {
				return c.finish(m.abandon("cancelled during golden retiming")), nil
			}
			return nil, err
		}
	}
	spSolve.End()
	spVal := sp.Child("validate")
	wcfg := c.cfg
	wcfg.Weights = m.Weights
	m.MGBA = c.sess.Run(wcfg)
	spVal.End()
	c.mergeWorst(m)
	// Fill the cache only when the model is trustworthy and the selection
	// is the plain endpoint-major concatenation (an mCap-truncated
	// round-robin selection cannot be patched per endpoint).
	if pop != nil && !m.Partial && m.Fault == "" && len(m.Selection.Paths) == pop.Total() {
		c.fillCache(m, pop)
		c.fillCornerCache()
		if !c.oneShot {
			c.mgba = m.MGBA.Clone()
			c.mweights = append([]float64(nil), m.Weights...)
		}
	}
	return c.finish(m), nil
}

// finish records the model's weights as the next solve's warm start —
// exactly the closure flow's historical behavior of feeding each
// calibration's weights into the next via Options.WarmWeights.
func (c *Calibrator) finish(m *Model) *Model {
	c.warm = m.Weights
	return m
}

// fillCache adopts a cold model's intermediates as the incremental cache,
// regrouping the flat timing/target/guard vectors per endpoint.
func (c *Calibrator) fillCache(m *Model, pop *pathsel.Population) {
	c.gba = m.GBA
	c.eps = pop.Endpoints()
	c.groups = pop.Groups()
	c.slotOf = make(map[int]int, len(c.eps))
	for i, fi := range c.eps {
		c.slotOf[fi] = i
	}
	c.tgroups = make([][]*pba.Timing, len(c.groups))
	c.targets = make([][]float64, len(c.groups))
	c.guards = make([][]float64, len(c.groups))
	off := 0
	for s, g := range c.groups {
		n := len(g)
		c.tgroups[s] = m.Timings[off : off+n : off+n]
		c.targets[s] = m.Problem.B[off : off+n : off+n]
		c.guards[s] = m.Problem.Guard[off : off+n : off+n]
		off += n
	}
	c.mat = m.Problem.A
	c.cols = m.Columns
}

// Recalibrate re-fits the weights after the given instances changed (gate
// or flip-flop resizes; anything that left the graph's connectivity and
// clock network intact). With a valid cache it runs the incremental path —
// update the baseline over the dirty cone, re-enumerate and retime only
// the affected endpoints, patch their rows of A, warm-start the solve —
// and returns a model bit-identical to a cold Calibrate of the same
// state. Without one (first call, after a fault, after Invalidate) it
// falls back to a cold calibration.
func (c *Calibrator) Recalibrate(ctx context.Context, dirty []int) (*Model, error) {
	if c.eps == nil || c.gba == nil {
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
	c.stats.Incremental++
	obsCalibIncremental.Inc()
	sp := obs.StartSpan("calibrate.recalibrate")
	defer sp.End()
	m := &Model{G: c.sess.G, Session: c.sess, Cfg: c.cfg, Opt: c.opt, Pair: c.pair.Name(), SafetyScale: 1}
	m.Opt.WarmWeights = c.warm
	c.gba.Update(dirty)
	if err := c.golden.Update(dirty); err != nil {
		// The incremental mirror failed; a cold calibration re-derives the
		// golden view from scratch instead.
		return c.cold(ctx, nil, coldGoldenUpdate)
	}
	m.GBA = c.gba
	m.Weights = identity(len(m.G.D.Instances))
	m.cheap = c.cheap
	if cancelled(ctx) {
		c.Invalidate()
		return c.finish(m.abandon("cancelled before path selection")), nil
	}
	an := pba.NewAnalyzer(m.GBA)
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
	newGroups := an.KWorstAll(affected, c.opt.K, &zero, c.cfg.Parallelism)
	c.stats.EndpointsReenumerated += len(affected)
	obsEndpointsReenum.Add(int64(len(affected)))
	if cancelled(ctx) {
		spEnum.End()
		c.Invalidate()
		return c.finish(m.abandon("cancelled before path selection")), nil
	}
	timer, err := c.golden.Timer(m.GBA)
	if err != nil {
		spEnum.End()
		return nil, err
	}
	newTimings := make([][]*pba.Timing, len(newGroups))
	retimed := 0
	for i, g := range newGroups {
		newTimings[i] = make([]*pba.Timing, len(g))
		for j, p := range g {
			if retimed%256 == 0 && cancelled(ctx) {
				spEnum.End()
				c.Invalidate()
				return c.finish(m.abandon("cancelled during golden retiming")), nil
			}
			newTimings[i][j] = timer.Retime(p)
			retimed++
		}
	}
	spEnum.End()
	oldCounts := make([]int, len(c.groups))
	for s, g := range c.groups {
		oldCounts[s] = len(g)
	}
	for i, s := range slots {
		c.groups[s] = newGroups[i]
		c.tgroups[s] = newTimings[i]
	}
	total := 0
	for _, g := range c.groups {
		total += len(g)
	}
	if c.opt.MaxPaths > 0 && total > c.opt.MaxPaths {
		// The cap now binds: the cold selection would be a round-robin
		// truncation, which the per-endpoint cache cannot reproduce.
		return c.cold(ctx, nil, coldPathCap)
	}
	spAsm := sp.Child("assemble")
	newCols, colOf := c.columnMap()
	if err := c.refreshRows(m, slots, oldCounts, newCols, colOf); err != nil {
		spAsm.End()
		return nil, err
	}
	c.cols = newCols
	m.Columns = newCols
	m.Selection = &pathsel.Selection{Scheme: "per-endpoint-top-k"}
	for _, g := range c.groups {
		m.Selection.Paths = append(m.Selection.Paths, g...)
	}
	for _, tg := range c.tgroups {
		m.Timings = append(m.Timings, tg...)
	}
	if len(m.Selection.Paths) == 0 {
		spAsm.End()
		// All violations repaired: degenerate to GBA, and drop the cache —
		// an empty matrix is not worth patching back to life.
		m.MGBA = m.GBA
		c.Invalidate()
		if c.multiCorner() {
			c.degenerateCorners(m)
			c.mergeWorst(m)
		}
		return c.finish(m), nil
	}
	flatB := make([]float64, 0, total)
	flatG := make([]float64, 0, total)
	for s := range c.groups {
		flatB = append(flatB, c.targets[s]...)
		flatG = append(flatG, c.guards[s]...)
	}
	c.mat.SetParallelism(engine.Workers(c.cfg.Parallelism))
	m.Problem = &solver.Problem{A: c.mat, B: flatB, Guard: flatG, Penalty: c.opt.Penalty}
	if err := m.Problem.Validate(); err != nil {
		spAsm.End()
		return nil, err
	}
	spAsm.End()
	spSolve := sp.Child("solve")
	var cornerSystems []*cornerSystem
	if c.multiCorner() {
		var cerr error
		cornerSystems, cerr = c.rebuildCornerSystems(ctx, m, slots, dirty)
		var why coldReason
		switch {
		case cerr == nil:
		case errors.As(cerr, &why):
			spSolve.End()
			return c.cold(ctx, nil, why)
		case cerr == errCornersCancelled:
			spSolve.End()
			c.Invalidate()
			return c.finish(m.abandon("cancelled during golden retiming")), nil
		default:
			spSolve.End()
			return nil, cerr
		}
	}
	if !(c.multiCorner() && c.opt.JointFit) {
		if err := m.solve(ctx); err != nil {
			spSolve.End()
			return nil, err
		}
	}
	if c.multiCorner() {
		if err := c.fitCorners(ctx, m, cornerSystems); err != nil {
			spSolve.End()
			return nil, err
		}
	}
	spSolve.End()
	spVal := sp.Child("validate")
	defer spVal.End()
	wcfg := c.cfg
	wcfg.Weights = m.Weights
	if c.mgba != nil {
		// Advance the private weighted baseline instead of re-running the
		// full weighted analysis: the only instances whose weighted view
		// changed are the dirty ones and those whose weight moved since the
		// cached evaluation, so Update over their union is bitwise equal to
		// a fresh Run under wcfg. The caller gets an independent clone; the
		// original stays with the calibrator for the next round.
		wdirty := append([]int(nil), dirty...)
		for i, w := range m.Weights[:n] {
			if c.mweights[i] != w {
				wdirty = append(wdirty, i)
			}
		}
		c.mgba.Cfg = wcfg
		c.mgba.Update(wdirty)
		copy(c.mweights, m.Weights)
		m.MGBA = c.mgba.Clone()
	} else {
		m.MGBA = c.sess.Run(wcfg)
	}
	c.mergeWorst(m)
	if m.Partial || m.Fault != "" {
		// A cut-short or faulted fit may have left the patched system in a
		// state we cannot vouch for; force the next calibration cold.
		c.Invalidate()
	}
	return c.finish(m), nil
}

// columnMap recomputes the column order from the cached selection: first
// occurrence over paths in row order, exactly like a cold assemble.
func (c *Calibrator) columnMap() ([]int, map[int]int) {
	colOf := make(map[int]int)
	var cols []int
	for _, g := range c.groups {
		for _, p := range g {
			for _, cell := range p.Cells {
				if _, ok := colOf[cell]; !ok {
					colOf[cell] = len(cols)
					cols = append(cols, cell)
				}
			}
		}
	}
	return cols, colOf
}

// refreshRows brings the cached matrix and per-slot target/guard vectors
// up to date for the re-enumerated slots. When the new column order
// extends the old one (the common case — new gates on dirty paths append
// columns), only the dirty slots' rows are spliced in place; when columns
// were reordered, the matrix is rebuilt from the cached rows, still
// without touching clean endpoints' enumerations or retimings.
func (c *Calibrator) refreshRows(m *Model, slots, oldCounts []int, newCols []int, colOf map[int]int) error {
	prefixOK := len(newCols) >= len(c.cols)
	if prefixOK {
		for i, id := range c.cols {
			if newCols[i] != id {
				prefixOK = false
				break
			}
		}
	}
	dirtySlot := make(map[int]bool, len(slots))
	for _, s := range slots {
		dirtySlot[s] = true
		c.targets[s] = make([]float64, len(c.groups[s]))
		c.guards[s] = make([]float64, len(c.groups[s]))
	}
	if !prefixOK {
		c.stats.MatrixRebuilds++
		b := sparse.NewBuilder(len(newCols))
		for s, g := range c.groups {
			for j, p := range g {
				idx, val, target, guard := c.cheap.Row(m.GBA, m.G, m.Opt.Epsilon, colOf, p, c.tgroups[s][j])
				if err := b.AddRow(idx, val); err != nil {
					return err
				}
				if dirtySlot[s] {
					c.targets[s][j] = target
					c.guards[s][j] = guard
				}
			}
		}
		c.mat = b.Build()
		return nil
	}
	if len(newCols) > len(c.cols) {
		if err := c.mat.GrowCols(len(newCols)); err != nil {
			return err
		}
	}
	starts := make([]int, len(c.groups)+1)
	for s, n := range oldCounts {
		starts[s+1] = starts[s] + n
	}
	shift := 0
	for _, s := range slots {
		lo := starts[s] + shift
		nOld, nNew := oldCounts[s], len(c.groups[s])
		for j, p := range c.groups[s] {
			idx, val, target, guard := c.cheap.Row(m.GBA, m.G, m.Opt.Epsilon, colOf, p, c.tgroups[s][j])
			var err error
			if j < nOld {
				err = c.mat.SetRow(lo+j, idx, val)
			} else {
				err = c.mat.InsertRow(lo+j, idx, val)
			}
			if err != nil {
				return err
			}
			c.stats.RowsPatched++
			c.targets[s][j] = target
			c.guards[s][j] = guard
		}
		for j := nOld; j > nNew; j-- {
			if err := c.mat.RemoveRow(lo + nNew); err != nil {
				return err
			}
		}
		shift += nNew - nOld
	}
	return nil
}
