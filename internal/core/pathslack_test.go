package core_test

import (
	"context"
	"math"
	"testing"

	"mgba/internal/core"
	"mgba/internal/gen"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// PathSlackWithWeights with nil weights must reproduce the enumerator's
// GBA slack exactly, for every selected path — the identity the §3.2
// study's out-of-selection evaluation rests on.
func TestPathSlackWithWeightsIdentity(t *testing.T) {
	g, cfg := smallDesign(t)
	r := sta.Analyze(g, cfg)
	an := pba.NewAnalyzer(r)
	checked := 0
	for fi := range g.D.FFs {
		for _, p := range an.KWorst(fi, 5, nil) {
			got := core.PathSlackWithWeights(r, an, p, nil)
			if math.Abs(got-p.GBASlack) > 1e-9 {
				t.Fatalf("nil-weight slack %v != GBA slack %v", got, p.GBASlack)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d paths checked", checked)
	}
}

// With the fitted weights, the helper must agree with the Model's own
// mgba slack vector on the selected paths.
func TestPathSlackWithWeightsMatchesModel(t *testing.T) {
	g, cfg := smallDesign(t)
	opt := core.DefaultOptions()
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Selection.Paths) == 0 {
		t.Skip("no violated paths")
	}
	an := pba.NewAnalyzer(m.GBA)
	mgba, err := m.PathSlacks("mgba")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Selection.Paths {
		got := core.PathSlackWithWeights(m.GBA, an, p, m.Weights)
		if math.Abs(got-mgba[i]) > 1e-6 {
			t.Fatalf("path %d: helper %v vs model %v", i, got, mgba[i])
		}
	}
}

// Scaling a single path gate's weight by w must shift that path's slack by
// exactly (1-w) * CellDelay — the linearity of Eq. (8).
func TestPathSlackLinearInWeights(t *testing.T) {
	g, cfg := smallDesign(t)
	r := sta.Analyze(g, cfg)
	an := pba.NewAnalyzer(r)
	var p0 *pba.Path
	for fi := range g.D.FFs {
		if ps := an.KWorst(fi, 1, nil); len(ps) > 0 && ps[0].NumGates() > 2 {
			p0 = ps[0]
			break
		}
	}
	if p0 == nil {
		t.Skip("no multi-gate path")
	}
	target := p0.Cells[1] // a combinational gate on the path
	w := make([]float64, len(g.D.Instances))
	for i := range w {
		w[i] = 1
	}
	w[target] = 0.8
	got := core.PathSlackWithWeights(r, an, p0, w)
	want := p0.GBASlack + 0.2*r.CellDelay[target]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("slack shift %v, want %v", got, want)
	}
}

// TestHeldOutOptimismBounded scores the fit on paths it never saw: the
// paths ranked k'+1 .. k'+10 at every selected endpoint, judged through
// PathSlackWithWeights against their golden retimes. The Eq. (5)
// projection only constrains the training rows, so held-out paths may
// still come out optimistic; the measured counts are pinned as upper
// bounds so a change that widens the held-out tail is caught.
func TestHeldOutOptimismBounded(t *testing.T) {
	const ranks = 10
	for _, tc := range []struct {
		design int // index into gen.Suite
		max    int // measured optimistic held-out paths
	}{
		{2, 0},
		{9, 87},
	} {
		cfg := gen.Suite()[tc.design]
		t.Run(cfg.Name, func(t *testing.T) {
			g := suiteGraph(t, cfg)
			m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			an := pba.NewAnalyzer(m.GBA)
			seen := map[int]bool{}
			zero := 0.0
			n, opt := 0, 0
			for _, p := range m.Selection.Paths {
				fi := g.FFIndex(p.Capture)
				if seen[fi] {
					continue
				}
				seen[fi] = true
				ps := an.KWorst(fi, m.Opt.K+ranks, &zero)
				if len(ps) <= m.Opt.K {
					continue
				}
				for _, hp := range ps[m.Opt.K:] {
					n++
					golden := an.Retime(hp).Slack
					s := core.PathSlackWithWeights(m.GBA, an, hp, m.Weights)
					if s > golden+m.Opt.Epsilon*math.Abs(golden)+1e-9 {
						opt++
					}
				}
			}
			t.Logf("%s: %d of %d held-out paths optimistic", cfg.Name, opt, n)
			if n == 0 {
				t.Fatal("no held-out paths past k'")
			}
			if opt > tc.max {
				t.Fatalf("%d held-out paths optimistic, bound %d", opt, tc.max)
			}
		})
	}
}
