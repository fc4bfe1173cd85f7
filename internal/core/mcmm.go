package core

import (
	"context"
	"errors"

	"mgba/internal/pba"
	"mgba/internal/solver"
	"mgba/internal/sta"
)

// Multi-corner (MCMM) calibration: one path enumeration on the selection
// corner (Corners[0]) feeds N per-corner Eq. (9) systems. Every corner
// re-times the same selected paths under its own derate tables and clock
// uncertainty (per-corner golden targets and guards), and the fits are
// solved either independently per corner or as one stacked joint system
// sharing the sparsity pattern (Options.JointFit). Every fit is projected
// onto its Eq. (5) rows, so no fitted corner is ever optimistic past its
// guard on the training selection. The enumeration — the dominant cost
// the framework exists to amortize — runs exactly once.

// CornerFit is the per-corner outcome of a multi-corner calibration.
// Corners[0] of a Model mirrors the model's own selection-corner fit; the
// rest are the extra corners in set order.
type CornerFit struct {
	Spec CornerSpec
	Cfg  sta.Config // the corner's analysis config (Weights == nil)

	Weights    []float64 // per instance ID: 1 + dx (shared across corners under JointFit)
	Correction []float64 // solved dx per column (Model.Columns order)
	Stats      solver.Stats
	Degraded   bool
	Partial    bool
	Fault      string

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

// cornerState is the calibrator's persistent per-corner state: the
// corner's bound views, its cached cheap baseline (advanced in place by
// incremental recalibrations), the warm start for its next solve, and —
// while the incremental cache is valid — its golden retimings grouped by
// cache slot. The selection corner's baseline is the model's GBA; it is
// cached only while the incremental cache is valid.
type cornerState struct {
	spec   CornerSpec
	cfg    sta.Config
	cheap  CheapView
	golden GoldenProvider

	gba     *sta.Result
	warm    []float64
	tgroups [][]*pba.Timing // per cache slot; nil when uncached
}

// fitCorners fits the extra corners' systems and attaches every corner's
// fit to the model. Independent fits solve each corner warm-started from
// its previous weights; under a joint fit every corner shares the
// model's weights. Each corner is re-analyzed under its fitted weights.
func (c *Calibrator) fitCorners(ctx context.Context, m *Model, extras []*eqSystem) error {
	if len(extras) == 0 {
		return nil
	}
	m.Corners = make([]*CornerFit, len(c.corners))
	for i, cs := range c.corners[1:] {
		sys := extras[i]
		sm := m
		if !c.opt.JointFit {
			sm = c.newModel(cs)
			sm.Problem, sm.Columns = sys.prob, m.Columns
			if err := sm.solve(ctx); err != nil {
				return err
			}
		}
		cs.warm = sm.Weights
		cf := fitOf(cs, sm, sys.prob)
		cf.GoldenSlack = sys.golden
		cf.fillSlacks(m.Columns)
		wcfg := cs.cfg
		wcfg.Weights = sm.Weights
		cf.MGBA = c.sess.Run(wcfg)
		m.Corners[i+1] = cf
	}
	return nil
}

// fitOf records corner cs's fit from the model solved over prob.
func fitOf(cs *cornerState, m *Model, prob *solver.Problem) *CornerFit {
	return &CornerFit{
		Spec: cs.spec, Cfg: cs.cfg,
		Weights: m.Weights, Correction: m.Correction,
		Stats: m.Stats, Degraded: m.Degraded, Partial: m.Partial,
		Fault: m.Fault, Problem: prob,
	}
}

// jointFit stacks the selection corner's system and every extra corner's
// system corner-major into one tall problem over the shared columns,
// solves it once, and adopts the result as the model's own fit. Every
// corner's Eq. (5) guard rows sit in the stacked system, so one
// projection covers all corners.
func (c *Calibrator) jointFit(ctx context.Context, m *Model, extras []*eqSystem) error {
	rows := m.Problem.A.Rows()
	for _, sys := range extras {
		rows += sys.prob.A.Rows()
	}
	js := c.newSystem(nil, nil, &columns{ids: m.Columns}, rows)
	if err := js.stack(m.Problem); err != nil {
		return err
	}
	for _, sys := range extras {
		if err := js.stack(sys.prob); err != nil {
			return err
		}
	}
	if err := js.build(); err != nil {
		return err
	}
	jm := c.newModel(c.corners[0])
	jm.Problem, jm.Columns = js.prob, m.Columns
	if err := jm.solve(ctx); err != nil {
		return err
	}
	m.Correction, m.Weights, m.Stats = jm.Correction, jm.Weights, jm.Stats
	m.Degraded, m.Partial, m.Fault = jm.Degraded, jm.Partial, jm.Fault
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

// mergeWorst attaches the selection corner's own fit as Corners[0] and
// builds the merged worst-corner slack view: per endpoint, the minimum
// mGBA slack over every corner. A transform is only safe when it
// regresses no corner — this is the vector the closure flow schedules
// and accepts against.
func (c *Calibrator) mergeWorst(m *Model) {
	if len(m.Corners) == 0 {
		return
	}
	cf0 := fitOf(c.corners[0], m, m.Problem)
	cf0.MGBA = m.MGBA
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
