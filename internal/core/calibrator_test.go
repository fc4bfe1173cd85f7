package core_test

import (
	"context"
	"slices"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/solver"
	"mgba/internal/sta"
)

// calDesign generates a violating toy design with its graph and session.
func calDesign(t *testing.T) (*netlist.Design, *graph.Graph, *engine.Session) {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 700, 90
	cfg.Name = "calibrator-test"
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, g, engine.NewSession(g)
}

// upsizeSelected applies n upsizes to distinct gates on the model's
// selected paths (worst first) and returns the dirty set the closure flow
// would record: each resized instance plus the drivers of its input nets.
func upsizeSelected(t *testing.T, d *netlist.Design, g *graph.Graph, m *core.Model, n int) []int {
	t.Helper()
	seen := make(map[int]bool)
	var dirty []int
	note := func(id int) {
		if !seen[id] {
			seen[id] = true
			dirty = append(dirty, id)
		}
	}
	resized := 0
	for _, p := range m.Selection.Paths {
		for _, id := range p.Cells {
			if resized == n {
				return dirty
			}
			inst := d.Instances[id]
			if seen[id] || inst.IsFF() {
				continue
			}
			to := d.Lib.Upsize(inst.Cell)
			if to == nil {
				continue
			}
			if err := d.Resize(inst, to); err != nil {
				continue
			}
			resized++
			note(id)
			for _, nid := range inst.Inputs {
				if drv := d.Nets[nid].Driver; drv >= 0 && !g.IsClock(drv) {
					note(drv)
				}
			}
		}
	}
	if resized == 0 {
		t.Fatal("no gate on the selection could be upsized")
	}
	return dirty
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRecalibrateMatchesColdExactly is the calibrator's core contract:
// after a batch of sizing transforms, the incremental Recalibrate must
// return bit-identical weights, selection, targets and mGBA slacks to a
// cold calibration of the same design state with the same warm start.
func TestRecalibrateMatchesColdExactly(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()

	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m0.Selection.Paths) == 0 {
		t.Fatal("toy design selected no paths")
	}

	dirty := upsizeSelected(t, d, g, m0, 40)

	mInc, err := cal.Recalibrate(ctx, dirty)
	if err != nil {
		t.Fatal(err)
	}
	st := cal.Stats()
	if st.Incremental != 1 {
		t.Fatalf("expected 1 incremental recalibration, stats %+v", st)
	}
	if st.EndpointsReenumerated == 0 {
		t.Fatalf("incremental recalibration re-enumerated no endpoints: %+v", st)
	}

	// The cold reference: same design state, same warm start, fresh
	// session so nothing is shared with the calibrator under test.
	coldOpt := opt
	coldOpt.WarmWeights = m0.Weights
	mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, coldOpt)
	if err != nil {
		t.Fatal(err)
	}

	if !sameFloats(mInc.Weights, mCold.Weights) {
		t.Error("incremental weights differ from cold calibration")
	}
	if len(mInc.Selection.Paths) != len(mCold.Selection.Paths) {
		t.Fatalf("selection sizes differ: incremental %d vs cold %d",
			len(mInc.Selection.Paths), len(mCold.Selection.Paths))
	}
	for i, p := range mInc.Selection.Paths {
		q := mCold.Selection.Paths[i]
		if p.Launch != q.Launch || p.Capture != q.Capture || p.GBASlack != q.GBASlack {
			t.Fatalf("selected path %d differs: %+v vs %+v", i, p, q)
		}
	}
	if !sameFloats(mInc.Problem.B, mCold.Problem.B) {
		t.Error("assembled targets differ from cold calibration")
	}
	if !sameFloats(mInc.Problem.Guard, mCold.Problem.Guard) {
		t.Error("assembled guards differ from cold calibration")
	}
	if mInc.Problem.A.NNZ() != mCold.Problem.A.NNZ() {
		t.Errorf("matrix NNZ differs: %d vs %d", mInc.Problem.A.NNZ(), mCold.Problem.A.NNZ())
	}
	if !sameFloats(mInc.MGBA.Slack, mCold.MGBA.Slack) {
		t.Error("mGBA endpoint slacks differ from cold calibration")
	}
}

// TestRecalibrateRepeatedBatches drives several transform/recalibrate
// rounds through one calibrator and cross-checks each round against cold.
func TestRecalibrateRepeatedBatches(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()

	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		dirty := upsizeSelected(t, d, g, m, 10)
		warm := m.Weights
		m, err = cal.Recalibrate(ctx, dirty)
		if err != nil {
			t.Fatal(err)
		}
		coldOpt := opt
		coldOpt.WarmWeights = warm
		mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, coldOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(m.Weights, mCold.Weights) {
			t.Fatalf("round %d: incremental weights differ from cold", round)
		}
	}
	if st := cal.Stats(); st.Incremental != 3 {
		t.Fatalf("expected 3 incremental recalibrations, stats %+v", st)
	}
}

// TestRecalibrateEmptyDirty mirrors the closure flow's round-boundary
// recalibrations with zero transforms since the last one: the result must
// still match a cold calibration (the warm start changes the solve).
func TestRecalibrateEmptyDirty(t *testing.T) {
	_, g, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()

	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mInc, err := cal.Recalibrate(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldOpt := opt
	coldOpt.WarmWeights = m0.Weights
	mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, coldOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(mInc.Weights, mCold.Weights) {
		t.Error("empty-dirty recalibration differs from cold")
	}
	if st := cal.Stats(); st.EndpointsReenumerated != 0 {
		t.Errorf("empty dirty set re-enumerated %d endpoints", st.EndpointsReenumerated)
	}
}

// TestInvalidateForcesCold asserts the escape hatch: after Invalidate the
// next Recalibrate runs the full pipeline.
func TestInvalidateForcesCold(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cal, err := core.NewCalibrator(sess, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m0, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dirty := upsizeSelected(t, d, g, m0, 5)
	cal.Invalidate()
	if _, err := cal.Recalibrate(ctx, dirty); err != nil {
		t.Fatal(err)
	}
	if st := cal.Stats(); st.Cold != 2 || st.Incremental != 0 {
		t.Fatalf("expected the recalibration to go cold, stats %+v", st)
	}
}

// requireSameProblem asserts two assembled Eq. (9) systems are
// bit-identical: shape, every row's entries, targets and guards.
func requireSameProblem(t *testing.T, got, want *solver.Problem) {
	t.Helper()
	if got.A.Rows() != want.A.Rows() || got.A.Cols() != want.A.Cols() {
		t.Fatalf("matrix shape %dx%d, want %dx%d", got.A.Rows(), got.A.Cols(), want.A.Rows(), want.A.Cols())
	}
	for i := 0; i < want.A.Rows(); i++ {
		gi, gv := got.A.Row(i)
		wi, wv := want.A.Row(i)
		if !slices.Equal(gi, wi) || !sameFloats(gv, wv) {
			t.Fatalf("row %d differs: (%v, %v) vs (%v, %v)", i, gi, gv, wi, wv)
		}
	}
	if !sameFloats(got.B, want.B) {
		t.Fatal("targets differ")
	}
	if !sameFloats(got.Guard, want.Guard) {
		t.Fatal("guards differ")
	}
	if got.Penalty != want.Penalty {
		t.Fatalf("penalty %v, want %v", got.Penalty, want.Penalty)
	}
}

// TestUnstreamedMaxPathsTruncation pins the one selection the cold loop
// does not keep per endpoint: with a binding cap, the unstreamed model's
// selection is exactly the round-robin truncation of the enumerated
// population, and the calibrator caches nothing, so the next Recalibrate
// runs cold for lack of a cache.
func TestUnstreamedMaxPathsTruncation(t *testing.T) {
	_, _, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()
	full, err := core.CalibrateWithSession(ctx, sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Selection.Paths) < 4 {
		t.Fatalf("fixture selected %d paths; the cap cannot bind", len(full.Selection.Paths))
	}
	opt.MaxPaths = len(full.Selection.Paths) / 2
	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	an := pba.NewAnalyzer(m.GBA)
	want := pathsel.Enumerate(an, opt.K).TopK(opt.K, opt.MaxPaths).Paths
	if len(m.Selection.Paths) != len(want) || len(want) != opt.MaxPaths {
		t.Fatalf("selection has %d paths, truncation %d, cap %d", len(m.Selection.Paths), len(want), opt.MaxPaths)
	}
	for i, p := range want {
		q := m.Selection.Paths[i]
		if q.Launch != p.Launch || q.Capture != p.Capture || q.GBASlack != p.GBASlack || !slices.Equal(q.Cells, p.Cells) {
			t.Fatalf("selected path %d differs from the round-robin truncation", i)
		}
	}
	if len(m.Timings) != len(want) || m.Problem.A.Rows() != len(want) {
		t.Fatalf("%d timings and %d rows for %d selected paths", len(m.Timings), m.Problem.A.Rows(), len(want))
	}

	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	noCache := obs.NewCounter("core.calibrations.cold.no_cache")
	before := noCache.Value()
	if _, err := cal.Recalibrate(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if st := cal.Stats(); st.Cold != 2 || st.Incremental != 0 {
		t.Fatalf("a truncated selection was cached: stats %+v", st)
	}
	if noCache.Value() != before+1 {
		t.Fatal("the cold recalibration was not counted as no_cache")
	}
}

// TestCalibrateOnSelectionMatchesCalibrate feeds the default scheme's own
// selection through the explicit-selection entry point: the fit must be
// bit-identical to the default Calibrate, system and weights alike.
func TestCalibrateOnSelectionMatchesCalibrate(t *testing.T) {
	_, g, _ := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()
	ref, err := core.Calibrate(ctx, g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Selection.Paths) == 0 {
		t.Fatal("fixture selected no paths")
	}
	sel := pathsel.Enumerate(pba.NewAnalyzer(ref.GBA), opt.K).TopK(opt.K, 0)
	m, err := core.CalibrateOnSelection(ctx, g, cfg, opt, sel)
	if err != nil {
		t.Fatal(err)
	}
	if m.Selection != sel {
		t.Error("model does not carry the explicit selection")
	}
	if !slices.Equal(m.Columns, ref.Columns) {
		t.Fatal("column maps differ")
	}
	requireSameProblem(t, m.Problem, ref.Problem)
	if !sameFloats(m.Correction, ref.Correction) {
		t.Error("corrections differ")
	}
	if !sameFloats(m.Weights, ref.Weights) {
		t.Error("weights differ")
	}
	if !sameFloats(m.MGBA.Slack, ref.MGBA.Slack) {
		t.Error("mGBA slacks differ")
	}
}
