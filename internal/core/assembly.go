package core

import (
	"math"
	"slices"

	"mgba/internal/engine"
	"mgba/internal/graph"
	"mgba/internal/pba"
	"mgba/internal/solver"
	"mgba/internal/sparse"
	"mgba/internal/sta"
)

// columns is the column map of an Eq. (9) system: column k is instance
// ids[k], numbered by first occurrence over the rows in row order. Every
// corner of a calibration shares one map.
type columns struct {
	of  map[int]int
	ids []int
}

// add numbers the cells of p not seen on an earlier row.
func (cm *columns) add(p *pba.Path) {
	for _, cell := range p.Cells {
		if _, ok := cm.of[cell]; !ok {
			cm.of[cell] = len(cm.ids)
			cm.ids = append(cm.ids, cell)
		}
	}
}

// eqSystem is the one builder of Eq. (9) systems in correction space:
// row p has entries a_pj = CellDelay_j (the cheap derated delay of every
// cell on the path), target b_p = the cheap-vs-golden pessimism gap of
// the path, and guard eps*|s_golden| (Eq. 5's tolerance). Rows come from
// one corner's cheap view against its baseline; the golden slack of every
// row is kept alongside. Cold calibration grows the shared column map
// while it appends rows, so the builder widens to it on every row.
type eqSystem struct {
	c    *Calibrator
	cs   *cornerState
	base *sta.Result
	cols *columns
	b    *sparse.Builder

	targets, guards, golden []float64
	prob                    *solver.Problem // set by build
}

// newSystem starts an empty system for corner cs against its cheap
// baseline, with room for rows rows.
func (c *Calibrator) newSystem(cs *cornerState, base *sta.Result, cols *columns, rows int) *eqSystem {
	s := &eqSystem{c: c, cs: cs, base: base, cols: cols, b: sparse.NewBuilder(len(cols.ids))}
	s.grow(rows)
	return s
}

// grow makes room for n more rows.
func (s *eqSystem) grow(n int) {
	s.targets = slices.Grow(s.targets, n)
	s.guards = slices.Grow(s.guards, n)
	s.golden = slices.Grow(s.golden, n)
}

// add appends the row of path p with golden timing tm.
func (s *eqSystem) add(p *pba.Path, tm *pba.Timing) error {
	s.b.EnsureCols(len(s.cols.ids))
	idx, val, target, guard := s.cs.cheap.Row(s.base, s.c.sess.G, s.c.opt.Epsilon, s.cols.of, p, tm)
	if err := s.b.AddRow(idx, val); err != nil {
		return err
	}
	s.targets = append(s.targets, target)
	s.guards = append(s.guards, guard)
	s.golden = append(s.golden, tm.Slack)
	return nil
}

// stack appends every row of an assembled problem (the joint fit).
func (s *eqSystem) stack(p *solver.Problem) error {
	for i := 0; i < p.A.Rows(); i++ {
		idx, val := p.A.Row(i)
		if err := s.b.AddRow(idx, val); err != nil {
			return err
		}
	}
	s.targets = append(s.targets, p.B...)
	s.guards = append(s.guards, p.Guard...)
	return nil
}

// build finalizes the rows into the system's validated solver problem.
func (s *eqSystem) build() (err error) {
	s.prob, err = s.c.problem(s.b.Build(), s.targets, s.guards)
	return err
}

// problem wraps an assembled matrix, built or patched in place, with its
// targets and guards. One Parallelism knob drives every stage: the same
// setting that sizes level-parallel propagation and PBA enumeration
// configures the solver kernels (whose results are bitwise identical at
// every worker count).
func (c *Calibrator) problem(a *sparse.Matrix, b, guard []float64) (*solver.Problem, error) {
	a.SetParallelism(engine.Workers(c.corners[0].cfg.Parallelism))
	p := &solver.Problem{A: a, B: b, Guard: guard, Penalty: c.opt.Penalty}
	return p, p.Validate()
}

// pathRow builds one row of the Eq. (9) system: entries a_pj =
// CellDelay_j (the cheap derated delay of every cell on the path), target
// b_p fitting the *delay correction* — the mGBA path delay should move by
// exactly the pessimism gap: the cheap cell sum minus the golden cell
// sum, minus whatever CRPR credit the golden replay grants beyond the
// conservative credit the cheap analysis already applied at this
// endpoint, plus the golden-vs-cheap wire gap when the pair times the
// path over different parasitics — and guard eps*|s_golden| (Eq. 5's
// tolerance). Shared by the cold assembly and the Calibrator's row
// patching, so both construct bit-identical rows.
func pathRow(gba *sta.Result, g *graph.Graph, epsilon float64, cols map[int]int, p *pba.Path, tm *pba.Timing) (idx []int, val []float64, target, guard float64) {
	idx = make([]int, len(p.Cells))
	val = make([]float64, len(p.Cells))
	var gbaSum, wireSum float64
	for k, c := range p.Cells {
		idx[k] = cols[c]
		val[k] = gba.CellDelay[c]
		gbaSum += val[k]
		wireSum += gba.WireDelay[c]
	}
	crprExtra := tm.CRPR - gba.GBACRPR[g.FFIndex(p.Capture)]
	target = (tm.CellSum - crprExtra) - gbaSum
	// Same-stage pairs replay the path over the very wire-delay array the
	// cheap analysis used — the sums cancel term by term and the gap is an
	// exact 0.0, leaving the historical target bit-for-bit. Cross-stage
	// pairs time the path over different parasitics; the wire gap is part
	// of the pessimism the fitted cell corrections must absorb.
	if wa := tm.WireSum - wireSum; wa != 0 {
		target += wa
	}
	guard = epsilon * math.Abs(tm.Slack)
	return idx, val, target, guard
}
