// Command mgba calibrates a modified-GBA model on one synthetic design and
// reports its accuracy against golden PBA:
//
//	mgba -design toy              # the small §3.2 design
//	mgba -design D3 -method scgrs # a suite design with the paper's solver
//	mgba -design D8 -method gd -k 10
//
// The output mirrors the per-design rows of Tables 3 and 4: selected path
// count, GBA/mGBA pass ratios, modelling mse, solver iterations and time.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mgba/internal/core"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netio"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/prof"
	"mgba/internal/report"
	"mgba/internal/sta"
)

func main() {
	design := flag.String("design", "toy", "design to calibrate: toy or D1..D10")
	method := flag.String("method", "scgrs", "solver: gd, scg, scgrs, full")
	k := flag.Int("k", 20, "k': worst paths selected per endpoint")
	viewpair := flag.String("viewpair", "", "view pair to calibrate: gba-pba (default) or preroute (cross-stage: pre-route analysis corrected against a deterministically routed twin)")
	corners := flag.String("corners", "", "multi-corner set, name[:derate-scale[:uncertainty-ps]],... e.g. typ,slow:1.15:10; paths are enumerated once on the first corner and every corner is fitted (empty: single-corner)")
	jointfit := flag.Bool("jointfit", false, "solve all corners as one stacked system sharing the sparsity pattern instead of independent per-corner fits")
	seed := flag.Uint64("seed", 0, "override the design seed (0 keeps the preset)")
	epsilon := flag.Float64("epsilon", 0.02, "optimism tolerance of Eq. (5)")
	saveFile := flag.String("save", "", "write the generated design as JSON to this file (atomic)")
	loadFile := flag.String("load", "", "load a design saved with -save instead of generating")
	timeout := flag.Duration("timeout", 0, "bound the calibration wall-clock (0: no limit); a timed-out run reports its partial fit")
	par := flag.Int("par", 0, "worker count for timing propagation, path enumeration and solver kernels (0: GOMAXPROCS, 1: serial; the result is identical at every setting)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof and /debug/summary on this host:port (enables run metrics; :0 picks a free port, printed to stderr)")
	events := flag.String("events", "", "append structured JSONL run events (spans, ladder transitions) to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mgba:", err)
		}
	}()

	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		obs.Enable(true)
		obs.SetSink(f)
		defer obs.SetSink(nil)
	}
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "mgba: debug server listening on %s\n", srv.Addr())
		defer srv.Close()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var d *netlist.Design
	if *loadFile != "" {
		var err error
		d, err = netio.LoadFile(*loadFile)
		if err != nil {
			fail(err)
		}
	} else {
		cfg, err := findConfig(*design)
		if err != nil {
			fail(err)
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		d, err = gen.Generate(cfg)
		if err != nil {
			fail(err)
		}
	}
	if *saveFile != "" {
		if err := netio.SaveFile(*saveFile, d); err != nil {
			fail(err)
		}
	}
	g, err := graph.Build(d)
	if err != nil {
		fail(err)
	}
	opt := core.DefaultOptions()
	opt.K = *k
	opt.Epsilon = *epsilon
	opt.ViewPair = *viewpair
	if opt.Corners, err = core.ParseCorners(*corners); err != nil {
		fail(err)
	}
	opt.JointFit = *jointfit
	switch strings.ToLower(*method) {
	case "gd":
		opt.Method = core.MethodGD
	case "scg":
		opt.Method = core.MethodSCG
	case "scgrs":
		opt.Method = core.MethodSCGRS
	case "full":
		opt.Method = core.MethodFull
	default:
		fail(fmt.Errorf("unknown method %q", *method))
	}
	cfg := sta.DefaultConfig()
	cfg.Parallelism = *par
	m, err := core.Calibrate(ctx, g, cfg, opt)
	if err != nil {
		fail(err)
	}
	if m.Partial {
		fmt.Println("note: calibration cut short by -timeout; reporting the partial (safety-scaled) fit")
	}
	if m.Fault != "" {
		fmt.Printf("note: %s\n", m.Fault)
	}

	st := d.Stats()
	fmt.Printf("design %s (node %dnm): %s, period %.0f ps\n", d.Name, d.Node, st, d.ClockPeriod)
	if len(m.Selection.Paths) == 0 {
		fmt.Println("no violated paths: mGBA degenerates to GBA (unit weights)")
		return
	}
	gba, err := m.Evaluate("cheap")
	if err != nil {
		fail(err)
	}
	mgba, err := m.Evaluate("mgba")
	if err != nil {
		fail(err)
	}
	t := report.New(fmt.Sprintf("mGBA calibration (%v, k'=%d, pair %s)", opt.Method, opt.K, m.Pair),
		"metric", "cheap", "mGBA")
	t.AddRow("selected paths", fmt.Sprintf("%d", gba.Paths), fmt.Sprintf("%d", mgba.Paths))
	t.AddRow("pass ratio (%)", report.Pct(gba.PassRatio, 2), report.Pct(mgba.PassRatio, 2))
	t.AddRow("mse (Eq. 12, 1e-3)", report.F(gba.MSE*1e3, 3), report.F(mgba.MSE*1e3, 3))
	t.AddRow("phi (Eq. 10, %)", report.Pct(gba.Phi, 2), report.Pct(mgba.Phi, 2))
	t.AddRow("optimistic paths", fmt.Sprintf("%d", gba.Optimism), fmt.Sprintf("%d", mgba.Optimism))
	t.AddNote("solver: %d iterations over %d rows in %v", m.Stats.Iters, m.Stats.RowsUsed, m.Stats.Elapsed)
	t.AddNote("correction sparsity: %s%% of entries within [-0.01, 0.01]", report.Pct(m.SparsityFraction(0.01), 1))
	fmt.Print(t.String())
	if len(m.Corners) > 0 {
		fit := "independent fits"
		if opt.JointFit {
			fit = "joint fit"
		}
		fmt.Printf("corners (%d, %s): merged worst WNS %.1f ps, TNS %.1f ps\n",
			len(m.Corners), fit, m.WorstWNS, m.WorstTNS)
		for _, cf := range m.Corners {
			cm, err := cf.Evaluate("mgba", opt.Epsilon)
			if err != nil {
				fail(err)
			}
			fmt.Printf("  %-12s WNS %9.1f ps  mse %.3e  optimistic paths %d\n",
				cf.Spec.Name, cf.MGBA.WNS, cm.MSE, cm.Optimism)
		}
	}
}

func findConfig(name string) (gen.Config, error) {
	if strings.EqualFold(name, "toy") {
		return gen.Toy(), nil
	}
	for _, cfg := range gen.Suite() {
		if strings.EqualFold(cfg.Name, name) {
			return cfg, nil
		}
	}
	return gen.Config{}, fmt.Errorf("unknown design %q (toy, D1..D10)", name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mgba:", err)
	os.Exit(1)
}
