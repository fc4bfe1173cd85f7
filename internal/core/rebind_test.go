package core_test

import (
	"context"
	"testing"

	"mgba/internal/cells"
	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/fixtures"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// retimeOne applies the first legal backward register slide in the design
// and returns the structural dirty set the closure flow records for it:
// the moved register, the gate it crossed, and the non-clock drivers of
// their input nets.
func retimeOne(t *testing.T, d *netlist.Design, g *graph.Graph) []int {
	t.Helper()
	for _, ff := range d.Instances {
		if !ff.IsFF() || ff.Dead {
			continue
		}
		if len(ff.Inputs) == 0 {
			continue
		}
		drv := d.Nets[ff.Inputs[0]].Driver
		if drv < 0 {
			continue
		}
		gate := d.Instances[drv]
		if err := d.RetimeBackward(ff, gate); err != nil {
			continue
		}
		seen := make(map[int]bool)
		var dirty []int
		note := func(id int) {
			if !seen[id] {
				seen[id] = true
				dirty = append(dirty, id)
			}
		}
		for _, inst := range []*netlist.Instance{ff, gate} {
			note(inst.ID)
			for _, nid := range inst.Inputs {
				if dr := d.Nets[nid].Driver; dr >= 0 && !g.IsClock(dr) {
					note(dr)
				}
			}
		}
		return dirty
	}
	t.Fatal("no legal backward slide in fixture")
	return nil
}

// TestRebindRecalibrateMatchesCold is the core-level contract behind
// retiming: after a connectivity-changing move, Rebind to the rebuilt
// session plus Recalibrate over the structural dirty set must be
// bit-identical to a cold calibration of the new design state with the
// same warm start.
func TestRebindRecalibrateMatchesCold(t *testing.T) {
	d, err := fixtures.RetimePipeline(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.NewSession(g)
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
		t.Fatal("fixture selected no paths")
	}

	dirty := retimeOne(t, d, g)

	// The move changed connectivity: rebuild the timing graph and bind the
	// calibrator to the new session, exactly as the closure flow does. The
	// dirty set grows by every instance whose derate context (AOCV depth or
	// bounding box) the slide shifted.
	g2, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	sess2 := engine.NewSession(g2)
	for i := range d.Instances {
		if sess.Depths.GBA[i] != sess2.Depths.GBA[i] ||
			sess.Boxes.GBADistance[i] != sess2.Boxes.GBADistance[i] {
			dirty = append(dirty, i)
		}
	}
	if err := cal.Rebind(sess2); err != nil {
		t.Fatal(err)
	}

	mInc, err := cal.Recalibrate(ctx, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if st := cal.Stats(); st.Incremental != 1 {
		t.Fatalf("rebind forced a cold recalibration: stats %+v", st)
	}

	coldOpt := opt
	coldOpt.WarmWeights = m0.Weights
	mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g2), cfg, coldOpt)
	if err != nil {
		t.Fatal(err)
	}

	if !sameFloats(mInc.Weights, mCold.Weights) {
		t.Error("incremental weights differ from cold calibration after rebind")
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
	if !sameFloats(mInc.MGBA.Slack, mCold.MGBA.Slack) {
		t.Error("mGBA endpoint slacks differ from cold calibration after rebind")
	}
}

// TestRebindShapeMismatchInvalidates: binding a session over a different
// design shape must not patch stale rows — the next calibration is cold.
func TestRebindShapeMismatchInvalidates(t *testing.T) {
	_, _, sess := calDesign(t)
	ctx := context.Background()
	cal, err := core.NewCalibrator(sess, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Calibrate(ctx); err != nil {
		t.Fatal(err)
	}

	other, err := fixtures.RetimePipeline(2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Build(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Rebind(engine.NewSession(g2)); err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Recalibrate(ctx, []int{0}); err != nil {
		t.Fatal(err)
	}
	st := cal.Stats()
	if st.Incremental != 0 {
		t.Fatalf("shape mismatch did not force cold recalibration: %+v", st)
	}
}

// TestRebindInPlaceShapeChangeInvalidates: in a closure flow the old and
// the new session time the same, mutated design object, so the shape
// check must compare what each graph was built over, not the live
// design. A register added in place changes the flip-flop list: the next
// calibration must be cold, counted as a shape change.
func TestRebindInPlaceShapeChangeInvalidates(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cal, err := core.NewCalibrator(sess, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Calibrate(ctx); err != nil {
		t.Fatal(err)
	}

	ff := d.Instances[d.FFs[0]]
	dNet := -1
	for _, v := range g.Topo {
		if in := d.Instances[v]; !in.IsFF() && in.Output >= 0 {
			dNet = in.Output
			break
		}
	}
	if _, err := d.AddFF(ff.Cell, ff.X, ff.Y, dNet, d.AddNet(), ff.Clock); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	shape := obs.NewCounter("core.calibrations.cold.shape_change")
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	before := shape.Value()
	if err := cal.Rebind(engine.NewSession(g2)); err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Recalibrate(ctx, []int{0}); err != nil {
		t.Fatal(err)
	}
	if st := cal.Stats(); st.Incremental != 0 || st.Cold != 2 {
		t.Fatalf("a changed flip-flop list did not force a cold recalibration: %+v", st)
	}
	if shape.Value() != before+1 {
		t.Fatal("the cold recalibration was not counted as a shape change")
	}
}

// TestRebindBufferInsertionMatchesCold is the core-level contract behind
// buffer insertion: after a data-net insertion appends an instance,
// Rebind grows the cache to the rebuilt session and Recalibrate over the
// insertion's dirty set (split-net driver, new buffer, moved sinks) plus
// the instances whose depth or box moved must be bit-identical to a cold
// calibration of the new design state with the same warm start.
func TestRebindBufferInsertionMatchesCold(t *testing.T) {
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
		t.Fatal("fixture selected no paths")
	}

	// Buffer the output net of the first gate on a selected path.
	var net int
	for _, id := range m0.Selection.Paths[0].Cells {
		if in := d.Instances[id]; !in.IsFF() {
			net = in.Output
			break
		}
	}
	dirty := []int{d.Nets[net].Driver}
	dirty = append(dirty, d.Nets[net].Sinks...)
	buf, err := d.InsertBuffer(net, d.Lib.Variants(cells.Buf)[0], "")
	if err != nil {
		t.Fatal(err)
	}
	dirty = append(dirty, buf.ID)
	g2, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	sess2 := engine.DeriveSession(sess, g2)
	for i := 0; i < g.NumInstances(); i++ {
		if sess.Depths.GBA[i] != sess2.Depths.GBA[i] ||
			sess.Boxes.GBADistance[i] != sess2.Boxes.GBADistance[i] {
			dirty = append(dirty, i)
		}
	}
	if err := cal.Rebind(sess2); err != nil {
		t.Fatal(err)
	}
	mInc, err := cal.Recalibrate(ctx, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if st := cal.Stats(); st.Incremental != 1 {
		t.Fatalf("rebind after a buffer insertion forced a cold recalibration: %+v", st)
	}

	coldOpt := opt
	coldOpt.WarmWeights = m0.Weights
	mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g2), cfg, coldOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(mInc.Weights, mCold.Weights) {
		t.Error("incremental weights differ from cold calibration after a buffer insertion")
	}
	if !sameFloats(mInc.MGBA.Slack, mCold.MGBA.Slack) {
		t.Error("mGBA endpoint slacks differ from cold calibration after a buffer insertion")
	}
}

// TestColdFallbackReasons: every cold calibration is counted under
// exactly one reason, so the reasons sum to core.calibrations.cold, and
// every call is counted once: a Recalibrate that falls back to a cold
// calibration is not also counted incremental.
func TestColdFallbackReasons(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	reason := func(r string) *obs.Counter { return obs.NewCounter("core.calibrations.cold." + r) }
	total := obs.NewCounter("core.calibrations.cold")
	reasons := []string{"requested", "no_cache", "shape_change", "unknown_instance",
		"clock_instance", "golden_update", "path_cap"}
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()
	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	clockID := -1
	for v := 0; v < g.NumInstances(); v++ {
		if g.IsClock(v) {
			clockID = v
			break
		}
	}
	// capCal's MaxPaths is the cached population exactly, taken after
	// upsizing gates on the selected paths repaired some violations;
	// growCap undoes those upsizes, growing the population back past the
	// cap, so the next Recalibrate finds the cap binding.
	m0, err := core.CalibrateWithSession(ctx, sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	upsized := upsizeSelected(t, d, g, m0, 40)
	ref, err := core.CalibrateWithSession(ctx, sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	capOpt := opt
	capOpt.MaxPaths = len(ref.Selection.Paths)
	capCal, err := core.NewCalibrator(sess, cfg, capOpt)
	if err != nil {
		t.Fatal(err)
	}
	growCap := func() []int {
		for _, id := range upsized {
			// Every gate starts at its weakest variant, so a weaker one
			// exists exactly for the gates upsizeSelected resized.
			inst := d.Instances[id]
			if to := d.Lib.Downsize(inst.Cell); to != nil && !inst.IsFF() {
				if err := d.Resize(inst, to); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := sess.Run(cfg)
		defer r.Release()
		if n := pathsel.Enumerate(pba.NewAnalyzer(r), opt.K).Total(); n <= capOpt.MaxPaths {
			t.Fatalf("undoing the upsizes left %d violated paths, cap %d", n, capOpt.MaxPaths)
		}
		return upsized
	}
	start := make(map[string]int64)
	for _, r := range reasons {
		start[r] = reason(r).Value()
	}
	total0 := total.Value()
	steps := []struct {
		reason string
		cal    *core.Calibrator
		run    func() error
	}{
		{"no_cache", cal, func() error { _, err := cal.Recalibrate(ctx, nil); return err }},
		{"unknown_instance", cal, func() error { _, err := cal.Recalibrate(ctx, []int{g.NumInstances()}); return err }},
		{"clock_instance", cal, func() error { _, err := cal.Recalibrate(ctx, []int{clockID}); return err }},
		{"requested", cal, func() error { _, err := cal.Calibrate(ctx); return err }},
		{"requested", capCal, func() error { _, err := capCal.Calibrate(ctx); return err }},
		{"path_cap", capCal, func() error { _, err := capCal.Recalibrate(ctx, growCap()); return err }},
	}
	for _, st := range steps {
		before := reason(st.reason).Value()
		calls := st.cal.Stats().Cold + st.cal.Stats().Incremental
		if err := st.run(); err != nil {
			t.Fatal(err)
		}
		if got := reason(st.reason).Value() - before; got != 1 {
			t.Errorf("%s: counted %d times, want 1", st.reason, got)
		}
		if got := st.cal.Stats().Cold + st.cal.Stats().Incremental - calls; got != 1 {
			t.Errorf("%s: cold + incremental moved by %d, want 1 (stats %+v)", st.reason, got, st.cal.Stats())
		}
	}
	var sum int64
	for _, r := range reasons {
		sum += reason(r).Value() - start[r]
	}
	if n := total.Value() - total0; sum != n || n != int64(len(steps)) {
		t.Errorf("reasons sum to %d, core.calibrations.cold moved by %d, want %d", sum, n, len(steps))
	}
}
