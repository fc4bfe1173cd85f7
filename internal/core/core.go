// Package core implements the paper's contribution — the modified
// graph-based analysis (mGBA) slack model of §3.1 and the calibration
// flow of §3.4 — generalized into a cross-stage slack-correction engine:
// a cheap timing view is fitted against a golden one through a pluggable
// (CheapView, GoldenProvider) pair, so the same machinery that corrects
// GBA against PBA retiming (the paper's instance, and the default pair)
// also corrects a pre-route analysis against a routed twin of the design
// (the "preroute" pair).
//
// Calibration pipeline (the right-hand side of the paper's Fig. 5):
//
//	cheap analyze -> per-endpoint top-k' violated path selection (§3.2)
//	-> golden retiming of the selected paths (fit targets)
//	-> assemble the sparse system of Eq. (9) in correction space
//	-> solve with GD / SCG / SCG+RS (§3.3) -> per-gate weights w = 1 + dx
//	-> project onto Eq. (5) -> re-run the cheap analysis with weighted delays.
//
// The fitted path slack never exceeds the golden slack by more than the
// epsilon tolerance of Eq. (5) on a training path: the quadratic penalty
// of Eq. (6) steers the fit, and a per-row projection after every fit
// lifts whatever rows it left short.
//
// The pipeline lives in one file per stage: viewpair.go (the pair
// interfaces and registry), assembly.go (eqSystem, the one builder of
// Eq. (9) systems, and the row decomposition), fit.go (the solve, its
// degradation ladder and the Eq. (5) projection), signoff.go (slack evaluation and the paper's
// accuracy metrics), calibrator.go (the one cold enumerate-retime-row
// loop, streamed or materialized, the incremental Recalibrate and the fit
// tail both share), corners.go and mcmm.go (the corner set and the
// per-corner fits) and preroute.go (the cross-stage pair).
package core

import (
	"context"
	"fmt"

	"mgba/internal/engine"
	"mgba/internal/graph"
	"mgba/internal/obs"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/solver"
	"mgba/internal/sta"
)

// Method selects the optimization solver for the calibration fit.
type Method int

// The solver methods compared in Table 4, plus the exact reference.
const (
	MethodGD    Method = iota // gradient descent, no row selection
	MethodSCG                 // Algorithm 2, no row selection
	MethodSCGRS               // Algorithm 1 + Algorithm 2 (the paper's choice)
	MethodFull                // active-set CGNR reference (tiny cases only)
)

func (m Method) String() string {
	switch m {
	case MethodGD:
		return "GD+w/oRS"
	case MethodSCG:
		return "SCG+w/oRS"
	case MethodSCGRS:
		return "SCG+RS"
	case MethodFull:
		return "full"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options parameterizes a calibration. DefaultOptions matches the paper's
// settings (k' = 20, epsilon-guarded constraints, SCG+RS solver).
type Options struct {
	K              int     // k': worst paths kept per endpoint (20)
	MaxPaths       int     // m' cap across all endpoints; <=0 means no cap
	CapPerEndpoint int     // safety cap for violated-path enumeration
	Epsilon        float64 // eps of Eq. (5): relative optimism tolerance
	Penalty        float64 // w of Eq. (6)
	Method         Method
	Solver         solver.Options
	Seed           uint64

	// ViewPair names the registered (cheap, golden) view pair the
	// calibration corrects between; "" selects DefaultViewPair, the
	// paper's GBA<->PBA pairing. The "preroute" pair corrects a pre-route
	// analysis against a deterministic routed twin of the design, seeded
	// by Seed.
	ViewPair string

	// MinWeight/MaxWeight clamp the fitted weights; a weight outside this
	// band would mean the fit wandered into physically meaningless
	// territory (negative or wildly inflated delays).
	MinWeight, MaxWeight float64

	// WarmWeights, when set, seeds the solver with a previous calibration's
	// per-instance weights (indexed by instance ID). The closure flow uses
	// it to make mid-flow recalibrations cheap: the netlist changed only
	// incrementally, so the old weights are near-optimal already.
	WarmWeights []float64

	// StreamShard, when positive, makes cold calibration stream the path
	// population in endpoint shards of this size instead of materializing
	// it: each shard is enumerated, retimed and appended to the Eq. (9)
	// system, then its pointer-form paths become garbage. Peak memory is
	// one shard plus the (required) assembled system; the fitted weights
	// are bit-identical to the materialized path. The kept population goes
	// into Model.Bank (slab form) instead of Model.Selection, and the
	// incremental cache is not filled. Streaming cannot reproduce the
	// MaxPaths round-robin truncation, so exceeding MaxPaths is an error.
	StreamShard int

	// Corners is the multi-corner (MCMM) corner set. Empty or length 1
	// runs the single-corner pipeline (a one-element set applies that
	// corner's derates and uncertainty to the analysis config and is
	// otherwise bit-identical to the plain calibrator). With N >= 2
	// corners, Corners[0] is the selection corner: its enumeration feeds
	// every corner's Eq. (9) system, every corner's fit is projected onto
	// its own Eq. (5) rows (so no corner is optimistic on the training
	// selection), and the model grows per-corner fits plus a merged
	// worst-corner slack view.
	Corners []CornerSpec

	// JointFit solves the N per-corner systems as one stacked fit sharing
	// the sparsity pattern — a single weight vector that every corner's
	// guard constrains — instead of N independent per-corner fits. Only
	// meaningful with >= 2 corners.
	JointFit bool
}

// DefaultOptions returns the paper's calibration parameters.
func DefaultOptions() Options {
	return Options{
		K:              20,
		MaxPaths:       5_000_000,
		CapPerEndpoint: 2000,
		Epsilon:        0.02,
		Penalty:        50,
		Method:         MethodSCGRS,
		Solver:         solver.DefaultOptions(),
		Seed:           1,
		MinWeight:      0.1,
		MaxWeight:      2.0,
	}
}

// Model is a fitted mGBA model for one design state.
type Model struct {
	G       *graph.Graph
	Session *engine.Session // timing session shared by the cheap and mGBA runs
	Cfg     sta.Config      // the cheap config calibrated against (Weights == nil)
	Opt     Options
	Pair    string // name of the view pair the model was fitted on

	GBA       *sta.Result        // baseline cheap analysis
	Selection *pathsel.Selection // calibration paths (empty when streamed)
	Timings   []*pba.Timing      // golden retiming per selected path

	// Bank holds the calibration paths in slab form when the model was
	// fitted through Options.StreamShard; Selection.Paths is empty then.
	// GoldenSlack is the golden slack per bank path (the streamed
	// counterpart of Timings[i].Slack).
	Bank        *pathsel.Bank
	GoldenSlack []float64

	Problem    *solver.Problem // Eq. (9) system in correction space
	Columns    []int           // column -> instance ID
	Correction []float64       // solved dx per column, before clamp and Eq. (5) projection
	Weights    []float64       // per instance ID: 1 + dx, clamped and projected (1 off-path)
	Stats      solver.Stats

	MGBA *sta.Result // re-analysis with the fitted weights

	// Corners holds the per-corner fits of a multi-corner calibration
	// (Corners[0] mirrors the model's own selection-corner fit); nil in
	// single-corner mode. WorstSlack is the merged worst-corner mGBA
	// slack per endpoint — the view the closure flow drives transforms
	// from — with WorstWNS/WorstTNS its negative-slack reduction.
	Corners            []*CornerFit
	WorstSlack         []float64
	WorstWNS, WorstTNS float64

	// Robustness record (see DESIGN.md §"Failure model & degradation
	// ladder").

	// Degraded is true when the accepted fit came from a safer solver
	// than requested, or from the identity fallback.
	Degraded bool
	// Partial is true when the fit was cut short by context cancellation
	// and the solver's best iterate was accepted.
	Partial bool
	// Fault describes why calibration fell back to identity weights; ""
	// when a fit was accepted.
	Fault string
	// Attempts records every solver run of the degradation ladder, in
	// order, including rejected ones.
	Attempts []Attempt
}

// Attempt is one rung of the degradation ladder: which solver ran, its
// stats, and — when it was rejected — why.
type Attempt struct {
	Method   Method
	Stats    solver.Stats
	Rejected string // "" when the attempt was accepted
}

// Calibrate runs the full mGBA calibration pipeline on a design's timing
// graph under the given cheap configuration, selecting calibration paths
// with the per-endpoint top-k' scheme of §3.2. It builds a throwaway
// engine.Session; callers that recalibrate the same design repeatedly
// (the closure loop) should use CalibrateWithSession instead.
//
// Cancelling ctx stops the pipeline at the next path or solver iteration
// and returns a valid *partial* model: at worst identity weights (mGBA ==
// the cheap baseline), at best the solver's last safe iterate, never an
// error. Errors are reserved for invalid inputs.
func Calibrate(ctx context.Context, g *graph.Graph, cfg sta.Config, opt Options) (*Model, error) {
	return calibrate(ctx, nil, g, cfg, opt, nil)
}

// CalibrateWithSession runs the calibration pipeline on an existing timing
// session, so the per-design immutable state (depths, boxes, clock index,
// CRPR credit cache) and the per-run scratch buffers are reused instead of
// recomputed — the difference between a per-iteration and a per-design
// cost inside the closure loop.
func CalibrateWithSession(ctx context.Context, s *engine.Session, cfg sta.Config, opt Options) (*Model, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil session")
	}
	return calibrate(ctx, s, s.G, cfg, opt, nil)
}

// CalibrateOnSelection runs the same pipeline against an explicit path
// selection instead of the built-in per-endpoint scheme; the §3.2 study
// uses it to compare selection schemes under identical fitting.
func CalibrateOnSelection(ctx context.Context, g *graph.Graph, cfg sta.Config, opt Options, sel *pathsel.Selection) (*Model, error) {
	if sel == nil {
		return nil, fmt.Errorf("core: nil selection")
	}
	return calibrate(ctx, nil, g, cfg, opt, sel)
}

func calibrate(ctx context.Context, s *engine.Session, g *graph.Graph, cfg sta.Config, opt Options, sel *pathsel.Selection) (*Model, error) {
	if s == nil {
		s = engine.NewSession(g)
	}
	// A throwaway Calibrator runs the identical cold pipeline; one-shot
	// callers never exercise its cache, so the weighted-baseline clone is
	// skipped rather than leaked.
	c, err := newBoundCalibrator(s, cfg, opt, true)
	if err != nil {
		return nil, err
	}
	return c.cold(ctx, sel, coldRequested)
}

// validateOptions rejects configurations the pipeline cannot run on.
func validateOptions(cfg sta.Config, opt Options) error {
	if cfg.Weights != nil {
		return fmt.Errorf("core: calibration config must not carry weights")
	}
	if opt.K < 1 {
		return fmt.Errorf("core: K must be >= 1")
	}
	if opt.Epsilon < 0 {
		return fmt.Errorf("core: negative epsilon")
	}
	if opt.MinWeight <= 0 || opt.MaxWeight < opt.MinWeight {
		return fmt.Errorf("core: bad weight clamp [%v,%v]", opt.MinWeight, opt.MaxWeight)
	}
	if _, err := LookupViewPair(opt.ViewPair); err != nil {
		return err
	}
	if err := ValidateCorners(opt.Corners); err != nil {
		return err
	}
	return nil
}

// abandon turns a half-built model into the degenerate identity model:
// unit weights, no selection, mGBA == the cheap baseline. The result is
// always valid, and pessimism-safe whenever the cheap view is
// conservative (the default pair always is: GBA never under-estimates a
// path delay that PBA would increase).
func (m *Model) abandon(why string) *Model {
	obsCalibAbandoned.Inc()
	obs.Event("calibration_abandoned", "why", why)
	m.Selection = &pathsel.Selection{}
	m.Timings = nil
	m.Bank = nil
	m.GoldenSlack = nil
	m.Problem = nil
	m.Columns = nil
	m.Correction = nil
	m.Weights = identity(len(m.G.D.Instances))
	m.MGBA = m.GBA
	m.Corners = nil
	m.WorstSlack = nil
	m.WorstWNS, m.WorstTNS = 0, 0
	m.Partial = true
	m.Degraded = true
	m.Fault = why
	return m
}

// cancelled reports whether ctx is done; a nil ctx never cancels.
func cancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

func identity(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}
