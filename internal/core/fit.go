package core

import (
	"context"
	"fmt"
	"math"

	"mgba/internal/num"
	"mgba/internal/obs"
	"mgba/internal/rng"
	"mgba/internal/solver"
)

// fallbackChain returns the degradation ladder for a requested method:
// each subsequent entry trades accuracy or speed for numerical safety.
// GD is the terminal rung — full gradients with a monotone Armijo line
// search cannot diverge.
func fallbackChain(m Method) []Method {
	switch m {
	case MethodSCGRS:
		return []Method{MethodSCGRS, MethodSCG, MethodGD}
	case MethodSCG:
		return []Method{MethodSCG, MethodGD}
	case MethodFull:
		return []Method{MethodFull, MethodGD}
	default:
		return []Method{MethodGD}
	}
}

// runSolver executes one rung of the ladder. Each rung gets a fresh rng
// seeded identically, so a retry is deterministic and independent of how
// many iterations the rejected attempt consumed.
func (m *Model) runSolver(ctx context.Context, meth Method) ([]float64, solver.Stats, error) {
	r := rng.New(m.Opt.Seed)
	switch meth {
	case MethodGD:
		return solver.GD(ctx, m.Problem, m.Opt.Solver)
	case MethodSCG:
		return solver.SCG(ctx, m.Problem, m.Opt.Solver, r)
	case MethodSCGRS:
		return solver.SCGRS(ctx, m.Problem, m.Opt.Solver, r)
	case MethodFull:
		return solver.FullSolve(ctx, m.Problem, 12, 500, 1e-10)
	default:
		return nil, solver.Stats{}, fmt.Errorf("core: unknown method %v", meth)
	}
}

// healthCheck decides whether a solver result is trustworthy enough to
// apply to the timing graph. identityF is the objective at x = 0 (unit
// weights): any accepted fit must do at least as well as doing nothing.
func (m *Model) healthCheck(x []float64, st solver.Stats, identityF float64) string {
	if !num.AllFinite(x) {
		return "non-finite solution"
	}
	if st.Reason == solver.StopDiverged {
		return "diverged"
	}
	if st.NumericalEvents > 0 {
		return fmt.Sprintf("%d numerical events", st.NumericalEvents)
	}
	if st.Reverts > 0 && !st.Improved {
		return "safeguard reverts without net improvement"
	}
	// Judge the fit as applied: clamped weights, not the raw iterate.
	f := m.Problem.Objective(m.clampedDx(x))
	if math.IsNaN(f) || f > identityF*(1+1e-9)+1e-12 {
		return fmt.Sprintf("objective %.6g worse than identity %.6g", f, identityF)
	}
	return ""
}

// clampedDx maps a raw correction through the weight clamp and back.
func (m *Model) clampedDx(x []float64) []float64 {
	dx := make([]float64, len(x))
	for k := range x {
		w := 1 + x[k]
		if w < m.Opt.MinWeight {
			w = m.Opt.MinWeight
		}
		if w > m.Opt.MaxWeight {
			w = m.Opt.MaxWeight
		}
		dx[k] = w - 1
	}
	return dx
}

// solve runs the degradation ladder: try the requested method, reject
// numerically unhealthy results, retry with the next-safer method, and on
// total failure start from identity weights (x = 0) — never an error,
// because identity weights reproduce the plain cheap analysis. Whatever
// the outcome, the weights are then projected onto Eq. (5), so no
// training path is left optimistic beyond its epsilon guard.
func (m *Model) solve(ctx context.Context) error {
	if m.Opt.Method < MethodGD || m.Opt.Method > MethodFull {
		return fmt.Errorf("core: unknown method %v", m.Opt.Method)
	}
	if m.Opt.WarmWeights != nil {
		obsWarmStartHits.Inc()
		x0 := make([]float64, len(m.Columns))
		for k, c := range m.Columns {
			if c < len(m.Opt.WarmWeights) && m.Opt.WarmWeights[c] > 0 {
				x0[k] = m.Opt.WarmWeights[c] - 1
			}
		}
		m.Opt.Solver.X0 = x0
	}
	identityF := m.Problem.ObjectiveAtZero()
	for rung, meth := range fallbackChain(m.Opt.Method) {
		x, st, err := m.runSolver(ctx, meth)
		att := Attempt{Method: meth, Stats: st}
		if err == nil {
			att.Rejected = m.healthCheck(x, st, identityF)
		} else {
			att.Rejected = err.Error()
		}
		m.Attempts = append(m.Attempts, att)
		obsLadderAttempts.Inc()
		if att.Rejected != "" {
			obsLadderRejected.Inc()
			obs.Event("ladder_reject", "method", meth.String(), "reason", att.Rejected)
		}
		if err == nil && att.Rejected == "" {
			if rung > 0 {
				obsCalibDegraded.Inc()
			}
			m.Correction = x
			m.Stats = st
			m.Degraded = rung > 0
			m.Partial = st.Reason == solver.StopCancelled
			m.applyWeights(m.Correction)
			m.project()
			return nil
		}
		if err == nil && st.Reason == solver.StopCancelled {
			// Cancelled *and* unhealthy: no budget left to retry safer
			// methods; identity weights are the only safe answer.
			break
		}
	}
	// Total failure: identity weights (mGBA == cheap on every path), lifted
	// wherever the cheap view itself is optimistic.
	obsCalibDegraded.Inc()
	m.Correction = make([]float64, len(m.Columns))
	m.Weights = identity(len(m.G.D.Instances))
	m.Stats = solver.Stats{}
	m.Degraded = true
	m.Fault = "all solver attempts rejected; using identity weights projected onto Eq. (5)"
	if cancelled(ctx) {
		m.Partial = true
	}
	m.project()
	return nil
}

// applyWeights clamps the correction into the physical weight band and
// scatters it onto the per-instance weight vector.
func (m *Model) applyWeights(x []float64) {
	for k, c := range m.Columns {
		w := 1 + x[k]
		if w < m.Opt.MinWeight {
			w = m.Opt.MinWeight
		}
		if w > m.Opt.MaxWeight {
			w = m.Opt.MaxWeight
		}
		m.Weights[c] = w
	}
}

// project enforces Eq. (5) exactly on the training selection. Row i's
// modelled delay shift under the applied weights is (A dx)_i and its
// floor is B_i - Guard_i; a row short of its floor is a path the model
// leaves optimistic beyond the epsilon guard. Each short row is projected
// onto its half-space by the minimum-norm update (delta_j proportional to
// a_ij), which raises the row's modelled delay to exactly the floor, so a
// bad row costs only its own columns, never the rest of the fit. Entries
// a_ij are non-negative delays, so a lift only ever adds pessimism to
// other rows — it can repair but never create a violation — and every
// pass shrinks the total deficit monotonically; sweeps stop at
// feasibility, at the MaxWeight clamp (a saturated column caps how much
// delay a gate can absorb), or at the pass cap. The projected rows are
// counted under core.safety.rows_projected.
func (m *Model) project() {
	const passes = 64
	dx := m.clampedCorrection()
	var lifted []bool // rows lifted at least once
	projected := 0
	for pass := 0; pass < passes; pass++ {
		progressed := false
		for i := 0; i < m.Problem.A.Rows(); i++ {
			floor := m.Problem.B[i] - m.Problem.GuardAt(i)
			// Live dot product: lifts applied earlier in this pass already
			// count, so rows sharing columns never stack the same deficit.
			axi := m.Problem.A.RowDot(i, dx)
			if axi >= floor-1e-12 {
				continue
			}
			idx, val := m.Problem.A.Row(i)
			var norm2 float64
			for _, v := range val {
				norm2 += v * v
			}
			if norm2 == 0 {
				continue
			}
			scale := (floor - axi) / norm2
			moved := false
			for k, j := range idx {
				nd := dx[j] + scale*val[k]
				if max := m.Opt.MaxWeight - 1; nd > max {
					nd = max
				}
				if nd > dx[j] {
					dx[j] = nd
					moved = true
				}
			}
			if !moved {
				continue
			}
			progressed = true
			if lifted == nil {
				lifted = make([]bool, m.Problem.A.Rows())
			}
			if !lifted[i] {
				lifted[i] = true
				projected++
			}
		}
		if !progressed {
			break
		}
	}
	if projected > 0 {
		m.applyWeights(dx)
		obsRowsProjected.Add(int64(projected))
		obs.Event("safety_projection", "rows", projected)
	}
}
