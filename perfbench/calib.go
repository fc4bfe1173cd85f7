package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/rng"
	"mgba/internal/sta"
)

// mcmmCorners is the 4-corner set of the multi-corner workload.
func mcmmCorners() []core.CornerSpec {
	return []core.CornerSpec{
		{Name: "typ"},
		{Name: "slow", DerateScale: 1.15, Uncertainty: 10},
		{Name: "fast", DerateScale: 0.85, Uncertainty: 5},
		{Name: "hot", DerateScale: 1.3, Uncertainty: 20},
	}
}

// calibSpec is one cold-calibration workload.
type calibSpec struct {
	design      gen.Config
	corners     []core.CornerSpec
	streamShard int
	setupReps   int
	// heldoutEndpoints caps how many endpoints the held-out check draws
	// (seeded sample); 0 takes every selected endpoint.
	heldoutEndpoints int
	prefix           string // named-metric prefix: "" or "mcmm_"
	// long marks an operation of many seconds, run as a fresh process
	// would run it: every operation at the workload seed (the solve is a
	// sliver of it, so fresh solver streams gain nothing, and a second
	// operation must reproduce the first), the worker scratch pools
	// emptied before each one, no set-up repetitions between them and no
	// re-run.
	long bool
}

func runCalibrateD10(e *env) (*result, error) {
	return runCalib(e, calibSpec{design: gen.Suite()[9], setupReps: 5})
}

func runMCMMD10(e *env) (*result, error) {
	return runCalib(e, calibSpec{design: gen.Suite()[9], corners: mcmmCorners(), setupReps: 5, prefix: "mcmm_"})
}

func runScale100k(e *env) (*result, error) {
	return runCalib(e, calibSpec{design: gen.Large(100_000), streamShard: 256, setupReps: 5, heldoutEndpoints: 256, long: true})
}

// heldoutRanks is how many paths past k' per endpoint the held-out check
// scores.
const heldoutRanks = 10

// runCalib times cold calibrations through core.NewCalibrator+Calibrate
// on one preset design. The first model, at the workload seed, is checked
// in full against references computed outside the calibrator, and a
// second calibration at that seed must reproduce its weights bit for bit.
func runCalib(e *env, spec calibSpec) (*result, error) {
	r := newResult()
	scfg := sta.DefaultConfig()
	opt := core.DefaultOptions()
	opt.Corners = spec.corners
	opt.StreamShard = spec.streamShard

	var latest *engine.Session
	var buildS []float64
	setup := func() error {
		latest = nil // let the previous repetition's design go
		d, err := gen.Generate(spec.design)
		if err != nil {
			return err
		}
		t0 := time.Now()
		g, err := graph.Build(d)
		if err != nil {
			return err
		}
		buildS = append(buildS, time.Since(t0).Seconds())
		latest = engine.NewSession(g)
		_, err = core.NewCalibrator(latest, scfg, opt)
		return err
	}
	setupS, err := setupTimes(spec.setupReps, setup)
	if err != nil {
		return nil, err
	}
	sess := latest
	if spec.long {
		setup = nil // operations too long to interleave set-up repetitions
	}

	// calibrate runs one cold calibration with operation i's solver seed.
	calibrate := func(i int) (*core.Model, sample, error) {
		o := opt
		o.Seed = e.opSeed(i)
		if spec.long {
			o.Seed = e.opSeed(0)
			// Two collections empty every sync.Pool, so no operation
			// inherits the previous one's enumeration scratch.
			runtime.GC()
			runtime.GC()
		}
		w := startWatch()
		cal, err := core.NewCalibrator(sess, scfg, o)
		if err != nil {
			return nil, w.stop(), fmt.Errorf("new calibrator: %w", err)
		}
		m, err := cal.Calibrate(e.ctx)
		smp := w.stop()
		if spec.long {
			// Return the operation's memory to the OS now, so the next
			// operation starts from the memory state a fresh process has.
			debug.FreeOSMemory()
		}
		return m, smp, err
	}

	var firstHash uint64
	var chk *calibCheck
	var lastGBA *sta.Result
	calls, degraded, mismatches := 0, 0, 0
	op := func() (sample, bool, error) {
		m, dt, err := calibrate(calls)
		calls++
		if err != nil {
			r.check("calibrate", false, "Calibrate: %v", err)
			return dt, true, nil
		}
		h := hashFloats(m.Weights)
		if calls == 1 {
			firstHash = h
			if chk, err = checkModel(e, m, spec); err != nil {
				return dt, true, err
			}
		} else if spec.long && h != firstHash {
			mismatches++
		}
		if m.Degraded {
			degraded++
		}
		lastGBA = m.GBA
		// A degraded fit (a safer rung of the solver ladder) is a valid,
		// never-optimistic model and is counted apart; an identity-weight
		// fallback or a fit cut short is a failure.
		return dt, m.Fault != "" || m.Partial, nil
	}

	timedW, tracedW := e.windows()
	// Long operations are not normalized: one or two of them leave too
	// few reference probes in a window, and their memory-bound work does
	// not slow with the host the way the reference does.
	var ref *reference
	if !spec.long {
		ref = newReference()
	}
	timed, err := measure(timedW, false, op, setup, ref)
	if err != nil {
		return nil, err
	}
	var traced *phase
	if e.trace {
		if traced, err = measure(tracedW, true, op, nil, nil); err != nil {
			return nil, err
		}
	}
	r.attempted, r.failed = timed.attempted, timed.failed
	if traced != nil {
		r.attempted += traced.attempted
		r.failed += traced.failed
	}
	if chk == nil {
		return nil, fmt.Errorf("the first calibration failed")
	}
	if spec.long {
		r.check("deterministic_weights", mismatches == 0,
			"%d of %d later calibrations differ from the first weights hash %016x", mismatches, calls-1, firstHash)
	} else {
		again, _, err := calibrate(0)
		if err != nil {
			return nil, fmt.Errorf("calibration re-run: %w", err)
		}
		h := hashFloats(again.Weights)
		r.check("deterministic_weights", h == firstHash,
			"re-running the workload seed gave weights hash %016x, first run %016x", h, firstHash)
	}
	r.outputs["weights_hash"] = fmt.Sprintf("%016x", firstHash)
	r.outputs["accuracy"] = fmt.Sprintf("pass %.9f optimistic %d heldout %d/%d", chk.passRatio, chk.optimistic, chk.heldoutOpt, chk.heldout)
	r.check("no_faults", r.failed == 0, "%d of %d calibrations fell back to identity weights or were cut short", r.failed, r.attempted)
	chk.report(r)

	r.endToEnd = endToEnd(r, append(setupS, timed.setups...), timed)
	r.addNamed(spec.prefix+"calib_s", median(timed.samples), "s", len(timed.samples))
	r.addNamed(spec.prefix+"pass_ratio", chk.passRatio, "ratio", 0)
	r.addNamed(spec.prefix+"optimistic_paths", float64(chk.optimistic), "count", 0)
	if spec.corners == nil {
		r.addNamed("heldout_optimistic_frac", chk.heldoutFrac, "ratio", chk.heldout)
	} else {
		r.addNamed("mcmm_corner_optimistic_paths", float64(chk.cornerOptimistic), "count", 0)
	}
	r.addNamed("paths", float64(chk.paths), "count", 0)
	r.addNamed("peak_heap_mb", timed.peakHeap/1e6, "MB", 0)
	r.addNamed("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", 0)
	r.addNamed("degraded_frac", ratio(float64(degraded), float64(calls)), "ratio", calls)

	if traced != nil {
		s := snapshot(traced.snap)
		n := float64(traced.attempted)
		addCommonLayers(r, s, n, chk.retimeCost)
		r.setLayer("graph.build_s", median(buildS))
		enumS, err := enumerateCost(lastGBA, opt)
		if err != nil {
			return nil, err
		}
		r.setLayer("pba.enumerate_s", enumS)
		ckptS, err := checkpointCost(e, sess.G.D, nil)
		if err != nil {
			return nil, err
		}
		r.setLayer("netio.checkpoint_s", ckptS)
		// Named, non-overlapping: the calibrator's four stages (the
		// enumerate stage includes golden retiming); the rest is the
		// baseline timing run and the calibrator's bookkeeping.
		attributed := r.layers["core.enumerate_s"] + r.layers["core.assemble_s"] +
			r.layers["solver.solve_s"] + r.layers["core.validate_s"]
		addTraceCost(r, timed.samples, traced.samples, attributed)
	}
	return r, nil
}

// enumerateCost times path enumeration alone, called directly on a
// model's baseline analysis: pathsel.Enumerate for a materialized
// calibration, pathsel.EnumerateStream for a streamed one.
func enumerateCost(gba *sta.Result, opt core.Options) (float64, error) {
	an := pba.NewAnalyzer(gba)
	dt, err := timeIt(func() error {
		if opt.StreamShard > 0 {
			return pathsel.EnumerateStream(an, opt.K, opt.StreamShard, func(*pathsel.Shard) error { return nil })
		}
		pathsel.Enumerate(an, opt.K)
		return nil
	})
	return dt.Seconds(), err
}

// retimeProbe times pba.Analyzer.Retime directly, in seconds per path:
// every violated path (k per endpoint) of a fresh baseline analysis of g,
// retimed once each.
func retimeProbe(g *graph.Graph, k int) float64 {
	r := engine.NewSession(g).Run(sta.DefaultConfig())
	an := pba.NewAnalyzer(r)
	paths := pathsel.Enumerate(an, k).All().Paths
	t0 := time.Now()
	for _, p := range paths {
		an.Retime(p)
	}
	return ratio(time.Since(t0).Seconds(), float64(len(paths)))
}

// calibCheck is the independent verdict on one calibrated model.
type calibCheck struct {
	paths            int
	goldenMismatch   int // paths whose re-run golden retime differs from the model's
	passRatio        float64
	optimistic       int
	evalPassRatio    float64 // the same numbers as Model.Evaluate reports them
	evalOptimistic   int
	corners          int // multi-corner: extra corners checked
	cornerOptimistic int // multi-corner: optimistic paths summed over corners
	cornerMismatch   int
	heldout          int
	heldoutOpt       int
	heldoutFrac      float64
	retimeCost       float64 // seconds per golden retime, timed directly
}

// checkModel recomputes a model's accuracy through pba.Analyzer.Retime
// and core.PathSlackWithWeights instead of Model.Evaluate, and scores
// held-out paths — ranked just past k' per endpoint, never seen by the
// fit — against their golden retimes.
func checkModel(e *env, m *core.Model, spec calibSpec) (*calibCheck, error) {
	c := &calibCheck{}
	an := pba.NewAnalyzer(m.GBA)
	var golden []float64
	var paths []*pba.Path
	if m.Bank != nil {
		golden = m.GoldenSlack
		for i := 0; i < m.Bank.Total(); i++ {
			paths = append(paths, m.Bank.Store.PathAt(i))
		}
	} else {
		paths = m.Selection.Paths
		for _, tm := range m.Timings {
			golden = append(golden, tm.Slack)
		}
	}
	c.paths = len(paths)
	if c.paths == 0 {
		return nil, fmt.Errorf("calibration selected no paths")
	}
	eps := m.Opt.Epsilon
	pass := 0
	t0 := time.Now()
	for i, p := range paths {
		g := an.Retime(p).Slack
		if g != golden[i] {
			c.goldenMismatch++
		}
		s := core.PathSlackWithWeights(m.GBA, an, p, m.Weights)
		if passes(s, g) {
			pass++
		}
		if optimistic(s, g, eps) {
			c.optimistic++
		}
	}
	c.retimeCost = time.Since(t0).Seconds() / float64(len(paths))
	c.passRatio = float64(pass) / float64(len(paths))
	mt, err := m.Evaluate("mgba")
	if err != nil {
		return nil, err
	}
	c.evalPassRatio, c.evalOptimistic = mt.PassRatio, mt.Optimism

	for ci, cf := range m.Corners {
		if ci == 0 {
			continue // Corners[0] is the model's own fit, checked above
		}
		c.corners++
		base := m.Session.Run(cf.Cfg)
		can := pba.NewAnalyzer(base)
		for i, p := range paths {
			g := can.Retime(p).Slack
			if g != cf.GoldenSlack[i] {
				c.cornerMismatch++
			}
			if optimistic(core.PathSlackWithWeights(base, can, p, cf.Weights), g, eps) {
				c.cornerOptimistic++
			}
		}
		base.Release()
	}
	c.heldout, c.heldoutOpt = heldout(e, m, an, paths, spec, eps)
	c.heldoutFrac = ratio(float64(c.heldoutOpt), float64(c.heldout))
	return c, nil
}

// heldout scores the paths ranked k'+1 .. k'+heldoutRanks at each
// selected endpoint (a seeded sample of spec.heldoutEndpoints of them
// when set) and returns how many there were and how many the fitted
// weights make optimistic past epsilon.
func heldout(e *env, m *core.Model, an *pba.Analyzer, paths []*pba.Path, spec calibSpec, eps float64) (n, opt int) {
	var eps2 []int
	seen := map[int]bool{}
	for _, p := range paths {
		fi := m.G.FFIndex(p.Capture)
		if !seen[fi] {
			seen[fi] = true
			eps2 = append(eps2, fi)
		}
	}
	if k := spec.heldoutEndpoints; k > 0 && k < len(eps2) {
		pick := rng.New(uint64(e.seed)).SampleWithoutReplacement(len(eps2), k)
		sample := make([]int, len(pick))
		for i, j := range pick {
			sample[i] = eps2[j]
		}
		eps2 = sample
	}
	zero := 0.0
	for _, fi := range eps2 {
		ps := an.KWorst(fi, m.Opt.K+heldoutRanks, &zero)
		if len(ps) <= m.Opt.K {
			continue
		}
		for _, p := range ps[m.Opt.K:] {
			n++
			if optimistic(core.PathSlackWithWeights(m.GBA, an, p, m.Weights), an.Retime(p).Slack, eps) {
				opt++
			}
		}
	}
	return n, opt
}

// passes is Table 3's criterion: within 5% relative or 5 ps absolute.
func passes(model, golden float64) bool {
	err := math.Abs(model - golden)
	return err <= core.PassAbsTol || err <= core.PassRelTol*math.Abs(golden)
}

// optimistic is Eq. (5) violated: the model slack beyond the golden one
// by more than the epsilon guard.
func optimistic(model, golden, eps float64) bool {
	return model > golden+eps*math.Abs(golden)+1e-9
}

// report turns the verdict into checks.
func (c *calibCheck) report(r *result) {
	r.check("golden_retime", c.goldenMismatch == 0,
		"%d of %d paths re-retimed by pba.Analyzer differ from the model's golden slack", c.goldenMismatch, c.paths)
	// PathSlackWithWeights sums weighted delays where Model.Evaluate
	// subtracts A·dx, so a path on a tolerance boundary may round the
	// other way; anything beyond that is a disagreement.
	tol := 1 + c.paths/1000
	r.check("accuracy_recompute",
		math.Abs(c.passRatio-c.evalPassRatio)*float64(c.paths) <= float64(tol) && absInt(c.optimistic-c.evalOptimistic) <= tol,
		"recomputed pass %.6f / optimistic %d, Model.Evaluate %.6f / %d (%d paths)",
		c.passRatio, c.optimistic, c.evalPassRatio, c.evalOptimistic, c.paths)
	if c.corners > 0 {
		r.check("corner_safety", c.cornerMismatch == 0 && c.cornerOptimistic == 0,
			"%d extra corners: %d golden mismatches, %d optimistic paths (strict safety requires 0)",
			c.corners, c.cornerMismatch, c.cornerOptimistic)
	}
	r.info["heldout_paths"] = c.heldout
	r.info["heldout_optimistic"] = c.heldoutOpt
	r.info["retime_cost_s"] = c.retimeCost
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
