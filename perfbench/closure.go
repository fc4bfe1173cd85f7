package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"sort"
	"time"

	"mgba/internal/closure"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netio"
	"mgba/internal/netlist"
)

// closureQoR is what one closure run must reproduce exactly on every
// repetition with the same seed.
type closureQoR struct {
	SignoffWNS, SignoffTNS float64
	Area                   float64
	Transforms             int
	Kinds                  string
	WeightsHash            uint64
}

func qorOf(res *closure.Result) closureQoR {
	kinds := make([]string, 0, len(res.Kinds))
	for k, n := range res.Kinds {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(kinds)
	return closureQoR{
		SignoffWNS: res.SignoffWNS, SignoffTNS: res.SignoffTNS, Area: res.Area,
		Transforms: res.Transforms, Kinds: fmt.Sprint(kinds), WeightsHash: hashFloats(res.Weights),
	}
}

// hashFloats is an FNV-1a digest of the exact bit patterns of xs.
func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash writes never fail
	}
	return h.Sum64()
}

// runClosureD3 times the mGBA closure flow (default upsize,buffer
// registry) on the D3 preset, checkpointing every 50 accepted transforms.
func runClosureD3(e *env) (*result, error) {
	r := newResult()
	cfg := gen.Suite()[2]
	var latest *netlist.Design
	var buildS []float64
	setup := func() error {
		d, err := gen.Generate(cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		g, err := graph.Build(d)
		if err != nil {
			return err
		}
		buildS = append(buildS, time.Since(t0).Seconds())
		engine.NewSession(g)
		latest = d
		return nil
	}
	setupS, err := setupTimes(5, setup)
	if err != nil {
		return nil, err
	}
	base := latest

	opt := closure.DefaultOptions(closure.TimerMGBA)
	opt.CheckpointPath = filepath.Join(e.tmp, "closure.ckpt")
	opt.CheckpointEvery = 50
	// closeOne runs closure with operation i's solver seed on a fresh copy
	// of the design.
	closeOne := func(i int) (*closure.Result, *netlist.Design, sample, error) {
		o := opt
		o.Core.Seed = e.opSeed(i)
		d := base.Clone()
		w := startWatch()
		res, err := closure.Run(e.ctx, d, o)
		return res, d, w.stop(), err
	}

	var first *closure.Result // operation 0, at the workload seed
	var last *closure.Result
	var lastDesign *netlist.Design
	var calibS, degraded []float64
	ops, signoffOK := 0, 0
	op := func() (sample, bool, error) {
		res, d, dt, err := closeOne(ops)
		ops++
		if err != nil {
			r.check("closure_run", false, "closure.Run: %v", err)
			return dt, true, nil
		}
		// Sign-off reference: a fresh graph of the final design, timed by
		// closure.Signoff outside the flow's own session.
		g, err := graph.Build(d)
		if err != nil {
			return dt, true, fmt.Errorf("rebuild final design: %w", err)
		}
		if wns, tns := closure.Signoff(g, opt.STA); wns == res.SignoffWNS && tns == res.SignoffTNS {
			signoffOK++
		} else if _, seen := r.info["signoff_mismatch"]; !seen {
			r.info["signoff_mismatch"] = fmt.Sprintf("run %d: fresh %.6f/%.6f, flow %.6f/%.6f",
				ops-1, wns, tns, res.SignoffWNS, res.SignoffTNS)
		}
		if ops == 1 {
			first = res
		}
		calibS = append(calibS, res.CalibElapsed.Seconds())
		// A degraded calibration (a safer rung of the solver ladder) still
		// yields a valid, never-optimistic model: it is counted apart.
		// Faults (identity-weight fallbacks, lost checkpoints) and a run
		// stopped short are failures.
		degraded = append(degraded, float64(res.DegradedCalibrations))
		last, lastDesign = res, d
		return dt, len(res.Faults) > 0 || res.Interrupted || res.StopReason != "completed", nil
	}

	timedW, tracedW := e.windows()
	timed, err := measure(timedW, false, op, setup, newReference())
	if err != nil {
		return nil, err
	}
	var traced *phase
	if e.trace {
		if traced, err = measure(tracedW, true, op, nil, nil); err != nil {
			return nil, err
		}
	}
	if first == nil {
		return nil, fmt.Errorf("the first closure run failed")
	}
	r.attempted, r.failed = timed.attempted, timed.failed
	if traced != nil {
		r.attempted += traced.attempted
		r.failed += traced.failed
	}
	again, _, _, err := closeOne(0)
	if err != nil {
		return nil, fmt.Errorf("closure re-run: %w", err)
	}
	r.check("deterministic_qor", qorOf(again) == qorOf(first),
		"re-running the workload seed reproduced QoR, transform kinds and weights hash: %v", qorOf(again) == qorOf(first))
	r.check("signoff_recheck", signoffOK == ops, "%d of %d runs matched a fresh closure.Signoff exactly %v",
		signoffOK, ops, r.info["signoff_mismatch"])
	r.check("checkpoints_written", last.Checkpoints > 0, "%d checkpoints in the last run", last.Checkpoints)
	r.check("no_faults", r.failed == 0, "%d failed runs, last run faults %v", r.failed, last.Faults)

	r.endToEnd = endToEnd(r, append(setupS, timed.setups...), timed)
	r.addNamed("closure_s", median(timed.samples), "s", len(timed.samples))
	r.addNamed("signoff_tns_ps", first.SignoffTNS, "ps", 0)
	r.addNamed("signoff_wns_ps", first.SignoffWNS, "ps", 0)
	r.addNamed("area_um2", first.Area, "um2", 0)
	r.addNamed("transforms", float64(first.Transforms), "count", 0)
	r.addNamed("peak_heap_mb", timed.peakHeap/1e6, "MB", 0)
	r.addNamed("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", 0)
	r.addNamed("degraded_calibrations", median(degraded), "count", len(degraded))
	r.outputs["qor"] = fmt.Sprintf("%+v", qorOf(first))
	r.info["kinds"] = first.Kinds
	r.info["calibrations"] = first.Calibrations

	if traced != nil {
		s := snapshot(traced.snap)
		n := float64(traced.attempted)
		g, err := graph.Build(base)
		if err != nil {
			return nil, err
		}
		addCommonLayers(r, s, n, retimeProbe(g, opt.Core.K))
		enumS, err := enumerateCost(engine.NewSession(g).Run(opt.STA), opt.Core)
		if err != nil {
			return nil, err
		}
		r.setLayer("pba.enumerate_s", enumS)
		r.setLayer("graph.build_s", median(buildS))
		r.setLayer("closure.calib_s", median(calibS[len(calibS)-traced.attempted:]))
		accepted := s.count("closure.transforms")
		rejected := s.countPrefix("closure.transforms.", ".rejected")
		r.setLayer("closure.transforms_accepted", ratio(accepted, n))
		r.setLayer("closure.transforms_rejected", ratio(rejected, n))
		r.setLayer("closure.accept_ratio", ratio(accepted, accepted+rejected))
		r.setLayer("closure.buffer_trials_rejected", ratio(s.count("closure.transforms.buffer.rejected"), n))
		r.setLayer("closure.repair_s", ratio(s.seconds("span.closure.repair_ns"), n))
		ckpts := ratio(s.count("closure.checkpoints.ok"), n)
		r.setLayer("netio.checkpoints", ckpts)
		ckptS, err := checkpointCost(e, lastDesign, last.Weights)
		if err != nil {
			return nil, err
		}
		r.setLayer("netio.checkpoint_s", ckptS)
		// Named, non-overlapping: the calibrator's share and the
		// checkpoint writes; the rest is the flow's own propagation and
		// transform trials.
		addTraceCost(r, timed.samples, traced.samples, r.layers["closure.calib_s"]+ckpts*ckptS)
	}
	return r, nil
}

// checkpointCost times netio.SaveCheckpointFile on the workload's final
// design and weights, median of five writes.
func checkpointCost(e *env, d *netlist.Design, weights []float64) (float64, error) {
	path := filepath.Join(e.tmp, "probe.ckpt")
	var xs []float64
	for i := 0; i < 5; i++ {
		dt, err := timeIt(func() error {
			return netio.SaveCheckpointFile(path, &netio.Checkpoint{Design: d, Weights: weights})
		})
		if err != nil {
			return 0, fmt.Errorf("checkpoint probe: %w", err)
		}
		xs = append(xs, dt.Seconds())
	}
	return median(xs), nil
}

// endToEnd builds the gated metric set from the set-up repetitions and
// the untraced phase. When the phase probed the reference, its times are
// normalized to nominal host speed and the raw set-up time and the
// reference are recorded beside them (the raw operation time is the
// workload's own named metric).
func endToEnd(r *result, setupS []float64, timed *phase) []metric {
	k := 1.0
	if len(timed.refs) > 0 {
		k = refScale(timed.refs)
		r.addNamed("setup_wall_s", median(setupS), "s", len(setupS))
		r.addNamed("reference_ms", median(timed.refs)*1e3, "ms", len(timed.refs))
	}
	return []metric{
		{Name: "setup_s", Value: median(setupS) * k, Unit: "s", N: len(setupS)},
		{Name: "op_p50_ms", Value: median(timed.samples) * k * 1e3, Unit: "ms", N: len(timed.samples)},
		// A mean, not a median: operations at different solver seeds fall
		// into clusters of trajectories, and a median flips between them.
		{Name: "alloc_mb_per_op", Value: mean(timed.allocs) / 1e6, Unit: "MB", N: len(timed.allocs)},
	}
}
