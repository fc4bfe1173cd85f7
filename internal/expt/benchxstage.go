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

// XStagePairBench is one row of the cross-stage benchmark: a full cold
// calibration of the D3 stand-in under one view pair, with the accuracy
// the fit reaches against that pair's golden view.
type XStagePairBench struct {
	Pair    string `json:"pair"`
	Paths   int    `json:"paths"`
	Columns int    `json:"columns"`
	FitNsOp int64  `json:"fit_ns_per_op"`

	CheapPassRatio float64 `json:"cheap_pass_ratio"`
	MGBAPassRatio  float64 `json:"mgba_pass_ratio"`
	CheapMSE       float64 `json:"cheap_mse"`
	MGBAMSE        float64 `json:"mgba_mse"`
	CheapOptimism  int     `json:"cheap_optimism"`
	MGBAOptimism   int     `json:"mgba_optimism"`
}

// XStageBench backs the BENCH_xstage.json artifact: the same design
// calibrated under every registered view pair, so the cross-stage pair's
// fit cost and accuracy are tracked next to the paper's GBA↔PBA baseline.
type XStageBench struct {
	Design string            `json:"design"`
	Gates  int               `json:"gates"`
	Pairs  []XStagePairBench `json:"pairs"`

	Mem MemStats `json:"mem"`
}

// BenchXStage times a cold calibration of the D3 stand-in under each
// registered view pair and reports pass ratio, MSE and residual optimism
// of the cheap and fitted views against that pair's golden slacks. Every
// pair's fit must end with zero optimism — the Eq. (5) projection runs
// on every fit — which this artifact makes a tracked number rather than a
// one-time test assertion.
func BenchXStage(e *Env) (*report.Table, *XStageBench, error) {
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
	res := &XStageBench{Design: cfg.Name, Gates: len(d.Instances)}

	for _, pair := range core.ViewPairNames() {
		e.logf("benchxstage: timing %s calibration on %s...\n", pair, cfg.Name)
		opt := core.DefaultOptions()
		opt.ViewPair = pair
		sess := engine.NewSession(g)
		var last *core.Model
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := core.CalibrateWithSession(ctx, sess, sta.DefaultConfig(), opt)
				if err != nil {
					b.Fatal(err)
				}
				if last != nil {
					last.MGBA.Release()
					if last.GBA != last.MGBA {
						last.GBA.Release()
					}
				}
				last = m
			}
		})
		if last == nil {
			return nil, nil, fmt.Errorf("expt: benchxstage produced no model for pair %s", pair)
		}
		cheap, err := last.Evaluate("cheap")
		if err != nil {
			return nil, nil, err
		}
		mgba, err := last.Evaluate("mgba")
		if err != nil {
			return nil, nil, err
		}
		res.Pairs = append(res.Pairs, XStagePairBench{
			Pair:           pair,
			Paths:          cheap.Paths,
			Columns:        len(last.Columns),
			FitNsOp:        br.NsPerOp(),
			CheapPassRatio: cheap.PassRatio,
			MGBAPassRatio:  mgba.PassRatio,
			CheapMSE:       cheap.MSE,
			MGBAMSE:        mgba.MSE,
			CheapOptimism:  cheap.Optimism,
			MGBAOptimism:   mgba.Optimism,
		})
		last.MGBA.Release()
		if last.GBA != last.MGBA {
			last.GBA.Release()
		}
	}

	t := report.New(fmt.Sprintf("Cross-stage calibration per view pair (%s, %d gates)", res.Design, res.Gates),
		"pair", "paths", "columns", "fit ns/op", "pass cheap", "pass mgba", "mse cheap", "mse mgba", "optim cheap", "optim mgba")
	for _, p := range res.Pairs {
		t.AddRow(p.Pair, fmt.Sprintf("%d", p.Paths), fmt.Sprintf("%d", p.Columns),
			fmt.Sprintf("%d", p.FitNsOp),
			report.Pct(p.CheapPassRatio, 2), report.Pct(p.MGBAPassRatio, 2),
			report.F(p.CheapMSE*1e3, 3), report.F(p.MGBAMSE*1e3, 3),
			fmt.Sprintf("%d", p.CheapOptimism), fmt.Sprintf("%d", p.MGBAOptimism))
	}
	t.AddNote("mse in 1e-3; optimism counts paths whose model slack beats golden beyond the eps guard")
	t.AddNote("the preroute pair fits against a deterministically routed twin; every pair must end with zero mgba optimism")
	res.Mem = CaptureMem()
	return t, res, nil
}
