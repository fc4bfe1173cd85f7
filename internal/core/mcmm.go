package core

import (
	"context"
	"errors"

	"mgba/internal/engine"
	"mgba/internal/pba"
	"mgba/internal/solver"
	"mgba/internal/sparse"
	"mgba/internal/sta"
)

// Multi-corner (MCMM) calibration: one path enumeration on the selection
// corner (Corners[0]) feeds N per-corner Eq. (9) systems. Every corner
// re-times the same selected paths under its own derate tables and clock
// uncertainty (per-corner golden targets and guards), and the fits are
// solved either independently per corner or as one stacked joint system
// sharing the sparsity pattern (Options.JointFit). StrictSafety is forced
// in multi-corner mode, so no fitted corner is ever optimistic past its
// Eq. (5) guard. The enumeration — the dominant cost the framework exists
// to amortize — runs exactly once.

// CornerFit is the per-corner outcome of a multi-corner calibration.
// Corners[0] of a Model mirrors the model's own selection-corner fit; the
// rest are the extra corners in set order.
type CornerFit struct {
	Spec CornerSpec
	Cfg  sta.Config // the corner's analysis config (Weights == nil)

	Weights     []float64 // per instance ID: 1 + dx (shared across corners under JointFit)
	Correction  []float64 // solved dx per column (Model.Columns order)
	Stats       solver.Stats
	Degraded    bool
	Partial     bool
	Fault       string
	SafetyScale float64

	// Problem is the corner's Eq. (9) system over the shared selection
	// (shared column order with Model.Columns). GoldenSlack, CheapSlack
	// and ModelSlack are the per-path slacks under this corner: golden
	// view, unweighted cheap view, and the fitted model. Row order is the
	// shared selection order.
	Problem     *solver.Problem
	GoldenSlack []float64
	CheapSlack  []float64
	ModelSlack  []float64

	// MGBA is the cheap re-analysis of this corner under the fitted
	// weights — the per-corner slack view the merged worst-corner view is
	// built from.
	MGBA *sta.Result
}

// Evaluate computes the paper's accuracy metrics for this corner's fit
// ("cheap" or "mgba") against the corner's golden slacks.
func (cf *CornerFit) Evaluate(kind string, epsilon float64) (Metrics, error) {
	switch kind {
	case "cheap", "gba":
		return Compare(cf.CheapSlack, cf.GoldenSlack, epsilon), nil
	case "mgba":
		return Compare(cf.ModelSlack, cf.GoldenSlack, epsilon), nil
	}
	return Metrics{}, errors.New("core: unknown slack kind " + kind)
}

// MergedSlack returns the per-endpoint slack view closure should drive
// transforms from: the worst-corner merge when the model is
// multi-corner, the plain mGBA slacks otherwise.
func (m *Model) MergedSlack() []float64 {
	if m.WorstSlack != nil {
		return m.WorstSlack
	}
	return m.MGBA.Slack
}

// cornerState is the calibrator's persistent per-extra-corner state: the
// corner's bound views, its cached cheap baseline (advanced in place by
// incremental recalibrations), the warm start for its next solve, and —
// while the incremental cache is valid — the corner's golden retimings
// grouped by the corner-0 cache slots.
type cornerState struct {
	spec   CornerSpec
	cfg    sta.Config
	cheap  CheapView
	golden GoldenProvider

	gba     *sta.Result
	warm    []float64
	flat    []*pba.Timing   // last cold's flat retimings (selection order)
	tgroups [][]*pba.Timing // per corner-0 cache slot; nil when uncached
}

// cornerSystem is one corner's assembled Eq. (9) system over the shared
// selection.
type cornerSystem struct {
	prob    *solver.Problem
	golden  []float64
	timings []*pba.Timing // nil for streamed (bank-backed) selections
}

// errCornersCancelled aborts multi-corner assembly on context
// cancellation; the caller abandons the model exactly like a cancelled
// single-corner retiming pass.
var errCornersCancelled = errors.New("core: corners cancelled")

// multiCorner reports whether the calibrator runs the N>=2 corner
// machinery.
func (c *Calibrator) multiCorner() bool { return len(c.corners) > 0 }

// forEachSelected visits every selected path of m in row order,
// materialized or banked. Banked paths are decoded into a reused buffer:
// the callback must not retain p.
func forEachSelected(m *Model, fn func(i int, p *pba.Path) error) error {
	if m.Bank != nil {
		var buf pba.Path
		for i := 0; i < m.Bank.Total(); i++ {
			if err := fn(i, m.Bank.Store.PathInto(&buf, i)); err != nil {
				return err
			}
		}
		return nil
	}
	for i, p := range m.Selection.Paths {
		if err := fn(i, p); err != nil {
			return err
		}
	}
	return nil
}

// buildCornerSystem retimes the shared selection under one corner's
// golden view and assembles its Eq. (9) system with the shared column
// order. Row order is the selection order, so every corner's system is
// row-aligned with the corner-0 system.
func (c *Calibrator) buildCornerSystem(ctx context.Context, m *Model, cs *cornerState, colOf map[int]int) (*cornerSystem, error) {
	timer, err := cs.golden.Timer(cs.gba)
	if err != nil {
		return nil, err
	}
	n := len(m.Selection.Paths)
	if m.Bank != nil {
		n = m.Bank.Total()
	}
	b := sparse.NewBuilder(len(m.Columns))
	targets := make([]float64, 0, n)
	guards := make([]float64, 0, n)
	golden := make([]float64, 0, n)
	var timings []*pba.Timing
	if m.Bank == nil {
		timings = make([]*pba.Timing, 0, n)
	}
	err = forEachSelected(m, func(i int, p *pba.Path) error {
		if i%256 == 0 && cancelled(ctx) {
			return errCornersCancelled
		}
		tm := timer.Retime(p)
		idx, val, target, guard := cs.cheap.Row(cs.gba, m.G, c.opt.Epsilon, colOf, p, tm)
		if err := b.AddRow(idx, val); err != nil {
			return err
		}
		targets = append(targets, target)
		guards = append(guards, guard)
		golden = append(golden, tm.Slack)
		if timings != nil {
			timings = append(timings, tm)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	a := b.Build()
	a.SetParallelism(engine.Workers(c.cfg.Parallelism))
	prob := &solver.Problem{A: a, B: targets, Guard: guards, Penalty: c.opt.Penalty}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return &cornerSystem{prob: prob, golden: golden, timings: timings}, nil
}

// calibrateCorners runs the cold multi-corner pass after the corner-0
// pipeline assembled (and, under independent fits, solved) its system:
// per extra corner a fresh cheap baseline, a golden refresh, a shared-
// selection retiming pass and either an independent or a joint fit.
func (c *Calibrator) calibrateCorners(ctx context.Context, m *Model) error {
	colOf := make(map[int]int, len(m.Columns))
	for k, id := range m.Columns {
		colOf[id] = k
	}
	built := make([]*cornerSystem, len(c.corners))
	for i, cs := range c.corners {
		cs.gba = cs.cheap.Run()
		if err := cs.golden.Refresh(); err != nil {
			return err
		}
		sys, err := c.buildCornerSystem(ctx, m, cs, colOf)
		if err != nil {
			return err
		}
		built[i] = sys
		cs.flat = sys.timings
	}
	return c.fitCorners(ctx, m, built)
}

// fitCorners solves the assembled per-corner systems — independently, or
// as one stacked joint system when Options.JointFit — and attaches the
// per-corner fits plus their weighted re-analyses to the model.
func (c *Calibrator) fitCorners(ctx context.Context, m *Model, built []*cornerSystem) error {
	m.Corners = make([]*CornerFit, len(c.corners)+1)
	if c.opt.JointFit {
		if err := c.jointFit(ctx, m, built); err != nil {
			return err
		}
		for i, cs := range c.corners {
			cf := &CornerFit{
				Spec: cs.spec, Cfg: cs.cfg,
				Weights: m.Weights, Correction: m.Correction,
				Stats: m.Stats, Degraded: m.Degraded, Partial: m.Partial,
				Fault: m.Fault, SafetyScale: m.SafetyScale,
				Problem: built[i].prob, GoldenSlack: built[i].golden,
			}
			cf.fillSlacks(m.Columns)
			wcfg := cs.cfg
			wcfg.Weights = m.Weights
			cf.MGBA = c.sess.Run(wcfg)
			m.Corners[i+1] = cf
			cs.warm = m.Weights
		}
		return nil
	}
	for i, cs := range c.corners {
		cf, err := c.solveCorner(ctx, m, cs, built[i])
		if err != nil {
			return err
		}
		m.Corners[i+1] = cf
	}
	return nil
}

// solveCorner fits one corner's system independently, warm-started from
// the corner's previous weights, and re-analyzes the corner under the
// fitted weights.
func (c *Calibrator) solveCorner(ctx context.Context, m *Model, cs *cornerState, sys *cornerSystem) (*CornerFit, error) {
	sm := &Model{G: m.G, Session: m.Session, Cfg: cs.cfg, Opt: c.opt, Pair: m.Pair, SafetyScale: 1}
	sm.Opt.WarmWeights = cs.warm
	sm.cheap = cs.cheap
	sm.GBA = cs.gba
	sm.Problem = sys.prob
	sm.Columns = m.Columns
	sm.Weights = identity(len(m.G.D.Instances))
	if err := sm.solve(ctx); err != nil {
		return nil, err
	}
	cs.warm = sm.Weights
	cf := &CornerFit{
		Spec: cs.spec, Cfg: cs.cfg,
		Weights: sm.Weights, Correction: sm.Correction,
		Stats: sm.Stats, Degraded: sm.Degraded, Partial: sm.Partial,
		Fault: sm.Fault, SafetyScale: sm.SafetyScale,
		Problem: sys.prob, GoldenSlack: sys.golden,
	}
	cf.fillSlacks(m.Columns)
	wcfg := cs.cfg
	wcfg.Weights = sm.Weights
	cf.MGBA = c.sess.Run(wcfg)
	return cf, nil
}

// jointFit stacks the corner-0 system and every extra corner's system
// corner-major into one tall problem over the shared columns, solves it
// once, and adopts the result as the model's own fit. Every corner's
// Eq. (5) guard rows sit in the stacked system, so the forced strict
// enforcement covers all corners with one scale-back/lift pass.
func (c *Calibrator) jointFit(ctx context.Context, m *Model, built []*cornerSystem) error {
	total := m.Problem.A.Rows()
	for _, sys := range built {
		total += sys.prob.A.Rows()
	}
	b := sparse.NewBuilder(len(m.Columns))
	targets := make([]float64, 0, total)
	guards := make([]float64, 0, total)
	stack := func(p *solver.Problem) error {
		for i := 0; i < p.A.Rows(); i++ {
			idx, val := p.A.Row(i)
			if err := b.AddRow(idx, val); err != nil {
				return err
			}
		}
		targets = append(targets, p.B...)
		guards = append(guards, p.Guard...)
		return nil
	}
	if err := stack(m.Problem); err != nil {
		return err
	}
	for _, sys := range built {
		if err := stack(sys.prob); err != nil {
			return err
		}
	}
	a := b.Build()
	a.SetParallelism(engine.Workers(c.cfg.Parallelism))
	jm := &Model{G: m.G, Session: m.Session, Cfg: c.cfg, Opt: m.Opt, Pair: m.Pair, SafetyScale: 1}
	jm.cheap = c.cheap
	jm.GBA = m.GBA
	jm.Columns = m.Columns
	jm.Weights = identity(len(m.G.D.Instances))
	jm.Problem = &solver.Problem{A: a, B: targets, Guard: guards, Penalty: c.opt.Penalty}
	if err := jm.Problem.Validate(); err != nil {
		return err
	}
	if err := jm.solve(ctx); err != nil {
		return err
	}
	m.Correction = jm.Correction
	m.Weights = jm.Weights
	m.Stats = jm.Stats
	m.Degraded = jm.Degraded
	m.Partial = jm.Partial
	m.Fault = jm.Fault
	m.SafetyScale = jm.SafetyScale
	m.Attempts = append(m.Attempts, jm.Attempts...)
	return nil
}

// fillSlacks derives the corner's per-path cheap and fitted slacks from
// its system: the row target is exactly the cheap-minus-golden delay gap,
// so cheap = golden + target, and the fitted model shifts cheap by the
// row's correction dot product.
func (cf *CornerFit) fillSlacks(columns []int) {
	n := len(cf.GoldenSlack)
	cf.CheapSlack = make([]float64, n)
	for i := range cf.CheapSlack {
		cf.CheapSlack[i] = cf.GoldenSlack[i] + cf.Problem.B[i]
	}
	dx := make([]float64, len(columns))
	for k, id := range columns {
		dx[k] = cf.Weights[id] - 1
	}
	ax := cf.Problem.A.MulVec(nil, dx)
	cf.ModelSlack = make([]float64, n)
	for i := range cf.ModelSlack {
		cf.ModelSlack[i] = cf.CheapSlack[i] - ax[i]
	}
}

// degenerateCorners attaches identity per-corner fits when the selection
// corner found nothing to calibrate on: every corner's model is its own
// unweighted cheap analysis.
func (c *Calibrator) degenerateCorners(m *Model) {
	m.Corners = make([]*CornerFit, len(c.corners)+1)
	for i, cs := range c.corners {
		// The fit owns its analysis outright — no aliasing into the
		// calibrator's cached baseline, which callers may Release.
		if cs.gba != nil {
			cs.gba.Release()
			cs.gba = nil
		}
		m.Corners[i+1] = &CornerFit{
			Spec: cs.spec, Cfg: cs.cfg,
			Weights: identity(len(m.G.D.Instances)), SafetyScale: 1,
			MGBA: cs.cheap.Run(),
		}
	}
}

// rebuildCornerSystems is the incremental counterpart of
// calibrateCorners: each corner's cheap baseline advances over the dirty
// cone, only the re-enumerated slots' paths are re-retimed under the
// corner's golden view (clean slots' cached retimings are provably still
// exact — a dirty instance's fanout cone covers every endpoint whose
// paths could contain it), and the corner's system is rebuilt from the
// cached groups. The enumeration itself was already shared with corner 0.
func (c *Calibrator) rebuildCornerSystems(ctx context.Context, m *Model, slots, dirty []int) ([]*cornerSystem, error) {
	colOf := make(map[int]int, len(c.cols))
	for k, id := range c.cols {
		colOf[id] = k
	}
	built := make([]*cornerSystem, len(c.corners))
	for i, cs := range c.corners {
		if cs.gba == nil || cs.tgroups == nil {
			return nil, coldNoCache
		}
		cs.gba.Update(dirty)
		if err := cs.golden.Update(dirty); err != nil {
			return nil, coldGoldenUpdate
		}
		timer, err := cs.golden.Timer(cs.gba)
		if err != nil {
			return nil, err
		}
		retimed := 0
		for _, s := range slots {
			g := c.groups[s]
			tg := make([]*pba.Timing, len(g))
			for j, p := range g {
				if retimed%256 == 0 && cancelled(ctx) {
					return nil, errCornersCancelled
				}
				tg[j] = timer.Retime(p)
				retimed++
			}
			cs.tgroups[s] = tg
		}
		total := 0
		for _, g := range c.groups {
			total += len(g)
		}
		b := sparse.NewBuilder(len(c.cols))
		targets := make([]float64, 0, total)
		guards := make([]float64, 0, total)
		golden := make([]float64, 0, total)
		timings := make([]*pba.Timing, 0, total)
		for s, g := range c.groups {
			for j, p := range g {
				tm := cs.tgroups[s][j]
				idx, val, target, guard := cs.cheap.Row(cs.gba, m.G, c.opt.Epsilon, colOf, p, tm)
				if err := b.AddRow(idx, val); err != nil {
					return nil, err
				}
				targets = append(targets, target)
				guards = append(guards, guard)
				golden = append(golden, tm.Slack)
				timings = append(timings, tm)
			}
		}
		a := b.Build()
		a.SetParallelism(engine.Workers(c.cfg.Parallelism))
		prob := &solver.Problem{A: a, B: targets, Guard: guards, Penalty: c.opt.Penalty}
		if err := prob.Validate(); err != nil {
			return nil, err
		}
		built[i] = &cornerSystem{prob: prob, golden: golden, timings: timings}
		cs.flat = timings
	}
	return built, nil
}

// mergeWorst attaches the selection corner's own fit as Corners[0] and
// builds the merged worst-corner slack view: per endpoint, the minimum
// mGBA slack over every corner. A transform is only safe when it
// regresses no corner — this is the vector the closure flow schedules
// and accepts against.
func (c *Calibrator) mergeWorst(m *Model) {
	if len(m.Corners) == 0 {
		return
	}
	cf0 := &CornerFit{
		Spec: c.opt.Corners[0], Cfg: c.cfg,
		Weights: m.Weights, Correction: m.Correction,
		Stats: m.Stats, Degraded: m.Degraded, Partial: m.Partial,
		Fault: m.Fault, SafetyScale: m.SafetyScale,
		Problem: m.Problem, MGBA: m.MGBA,
	}
	if m.Problem != nil {
		cf0.GoldenSlack, _ = m.PathSlacks("golden")
		cf0.CheapSlack, _ = m.PathSlacks("cheap")
		cf0.ModelSlack, _ = m.PathSlacks("mgba")
	}
	m.Corners[0] = cf0
	worst := append([]float64(nil), m.MGBA.Slack...)
	for _, cf := range m.Corners[1:] {
		for i, s := range cf.MGBA.Slack {
			if s < worst[i] {
				worst[i] = s
			}
		}
	}
	m.WorstSlack = worst
	m.WorstWNS, m.WorstTNS = 0, 0
	for _, s := range worst {
		if s < 0 {
			m.WorstTNS += s
			if s < m.WorstWNS {
				m.WorstWNS = s
			}
		}
	}
}

// fillCornerCache regroups each corner's flat cold retimings by the
// corner-0 cache slots, arming the incremental multi-corner path.
func (c *Calibrator) fillCornerCache() {
	for _, cs := range c.corners {
		if cs.flat == nil || len(cs.flat) != c.cacheTotal() {
			cs.tgroups = nil
			continue
		}
		cs.tgroups = make([][]*pba.Timing, len(c.groups))
		off := 0
		for s, g := range c.groups {
			n := len(g)
			cs.tgroups[s] = cs.flat[off : off+n : off+n]
			off += n
		}
	}
}

// cacheTotal is the number of cached selection paths across all slots.
func (c *Calibrator) cacheTotal() int {
	total := 0
	for _, g := range c.groups {
		total += len(g)
	}
	return total
}
