package expt

import (
	"context"
	"fmt"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/report"
	"mgba/internal/sta"
)

// MCMMSetBench is one row of the multi-corner benchmark: the same corner
// set calibrated the shared way (one enumeration feeding every corner's
// fit) and the naive way (one full single-corner calibration per corner).
type MCMMSetBench struct {
	Corners         []string `json:"corners"`
	SharedNsOp      int64    `json:"shared_ns_per_op"`
	IndependentNsOp int64    `json:"independent_ns_per_op"`
	Speedup         float64  `json:"speedup"`

	Paths       int     `json:"paths"`
	WorstWNS    float64 `json:"worst_wns_ps"`
	MaxOptimism int     `json:"max_corner_optimism"`
}

// MCMMBench backs the BENCH_mcmm.json artifact: shared-enumeration
// multi-corner calibration against N independent cold calibrations on the
// D3 stand-in, at N = 1, 2 and 4 corners. The speedup at N >= 2 is the
// framework's amortization claim made a tracked number; the per-corner
// optimism column pins the Eq. (5) guard at every N.
type MCMMBench struct {
	Design string         `json:"design"`
	Gates  int            `json:"gates"`
	Sets   []MCMMSetBench `json:"sets"`

	Mem MemStats `json:"mem"`
}

// mcmmCornerSets are the benchmark's corner sets: the base corner alone
// (the single-corner pipeline), plus margin-scaled/uncertainty-shifted
// companions at N=2 and N=4.
func mcmmCornerSets() [][]core.CornerSpec {
	typ := core.CornerSpec{Name: "typ"}
	slow := core.CornerSpec{Name: "slow", DerateScale: 1.15, Uncertainty: 10}
	fast := core.CornerSpec{Name: "fast", DerateScale: 0.85, Uncertainty: 5}
	hot := core.CornerSpec{Name: "hot", DerateScale: 1.3, Uncertainty: 20}
	return [][]core.CornerSpec{
		{typ},
		{typ, slow},
		{typ, slow, fast, hot},
	}
}

// releaseMCMM returns a model's caller-owned analyses to the session pool
// (the baseline GBA stays with the calibrator, which advances it).
func releaseMCMM(m *core.Model) {
	if m == nil {
		return
	}
	for _, cf := range m.Corners {
		// Corners[0] mirrors the model's own MGBA; extra corners own theirs.
		if cf != nil && cf.MGBA != nil && cf.MGBA != m.MGBA && cf.MGBA != m.GBA {
			cf.MGBA.Release()
		}
	}
	if m.MGBA != nil && m.MGBA != m.GBA {
		m.MGBA.Release()
	}
}

// BenchMCMM times shared-enumeration multi-corner calibration against N
// independent single-corner calibrations of the same corners, on the D3
// stand-in. Both arms run persistent calibrators with the warm start reset
// each iteration, so every measured pass is a genuinely cold pipeline.
func BenchMCMM(e *Env) (*report.Table, *MCMMBench, error) {
	cfg := gen.Suite()[2] // D3
	if e.Quick {
		cfg.Gates, cfg.FFs = cfg.Gates/4, cfg.FFs/4
	}
	d, err := gen.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.Build(d)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	res := &MCMMBench{Design: cfg.Name, Gates: len(d.Instances)}

	for _, set := range mcmmCornerSets() {
		names := core.CornerNames(set)
		e.logf("benchmcmm: %d corners (%v) on %s: shared enumeration...\n", len(set), names, cfg.Name)

		// Shared arm: one calibrator carrying the whole corner set.
		sharedSess := engine.NewSession(g)
		sharedOpt := core.DefaultOptions()
		sharedOpt.Corners = set
		sharedCal, err := core.NewCalibrator(sharedSess, sta.DefaultConfig(), sharedOpt)
		if err != nil {
			return nil, nil, err
		}
		var last *core.Model
		sharedBr := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sharedCal.SetWarmWeights(nil)
				sharedCal.Invalidate()
				m, err := sharedCal.Calibrate(ctx)
				if err != nil {
					b.Fatal(err)
				}
				releaseMCMM(last)
				last = m
			}
		})
		if last == nil {
			return nil, nil, fmt.Errorf("expt: benchmcmm produced no model for %v", names)
		}

		e.logf("benchmcmm: %d corners: independent calibrations...\n", len(set))
		// Independent arm: one single-corner calibrator per corner, each
		// paying its own enumeration.
		cals := make([]*core.Calibrator, len(set))
		for i, spec := range set {
			opt := core.DefaultOptions()
			opt.Corners = []core.CornerSpec{spec}
			sess := engine.NewSession(g)
			if cals[i], err = core.NewCalibrator(sess, sta.DefaultConfig(), opt); err != nil {
				return nil, nil, err
			}
		}
		indepBr := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cal := range cals {
					cal.SetWarmWeights(nil)
					cal.Invalidate()
					m, err := cal.Calibrate(ctx)
					if err != nil {
						b.Fatal(err)
					}
					releaseMCMM(m)
				}
			}
		})

		maxOpt := 0
		if len(last.Corners) == 0 {
			m, err := last.Evaluate("mgba")
			if err != nil {
				return nil, nil, err
			}
			maxOpt = m.Optimism
		}
		for _, cf := range last.Corners {
			cm, err := cf.Evaluate("mgba", sharedOpt.Epsilon)
			if err != nil {
				return nil, nil, err
			}
			if cm.Optimism > maxOpt {
				maxOpt = cm.Optimism
			}
		}
		worst := last.MGBA.WNS
		if last.WorstSlack != nil {
			worst = last.WorstWNS
		}
		res.Sets = append(res.Sets, MCMMSetBench{
			Corners:         names,
			SharedNsOp:      sharedBr.NsPerOp(),
			IndependentNsOp: indepBr.NsPerOp(),
			Speedup:         float64(indepBr.NsPerOp()) / float64(sharedBr.NsPerOp()),
			Paths:           len(last.Selection.Paths),
			WorstWNS:        worst,
			MaxOptimism:     maxOpt,
		})
		releaseMCMM(last)
	}

	t := report.New(fmt.Sprintf("Multi-corner calibration: shared enumeration vs independent (%s, %d gates)", res.Design, res.Gates),
		"corners", "shared ns/op", "independent ns/op", "speedup", "paths", "worst WNS", "max optimism")
	for _, s := range res.Sets {
		t.AddRow(fmt.Sprintf("%d", len(s.Corners)),
			fmt.Sprintf("%d", s.SharedNsOp),
			fmt.Sprintf("%d", s.IndependentNsOp),
			report.F(s.Speedup, 2)+"x",
			fmt.Sprintf("%d", s.Paths),
			report.F(s.WorstWNS, 1),
			fmt.Sprintf("%d", s.MaxOptimism))
	}
	t.AddNote("shared: one path enumeration on the selection corner feeds every corner's Eq. (9) fit")
	t.AddNote("independent: each corner pays its own enumeration and golden retiming (N separate cold calibrations)")
	t.AddNote("max optimism counts model-beats-golden paths beyond the eps guard, worst corner — must be 0")
	res.Mem = CaptureMem()
	return t, res, nil
}
