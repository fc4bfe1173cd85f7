package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/faultinject"
	"mgba/internal/gen"
	"mgba/internal/solver"
	"mgba/internal/sta"
)

// allOnes reports whether every weight is exactly the identity.
func allOnes(w []float64) bool {
	for _, v := range w {
		if v != 1 {
			return false
		}
	}
	return true
}

// TestLadderFallsToIdentityOnPersistentNaN: when every solver rung sees
// NaN gradients, calibration must land on identity weights (mGBA == GBA:
// the default pair's cheap view is conservative, so the Eq. (5)
// projection has nothing to lift), record the fault, and never error or
// panic.
func TestLadderFallsToIdentityOnPersistentNaN(t *testing.T) {
	g, cfg := smallDesign(t)
	faultinject.SetSlice(faultinject.SolverGradient, func(v []float64) {
		for i := range v {
			v[i] = math.NaN()
		}
	})
	defer faultinject.Reset()
	m, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded {
		t.Fatal("persistently poisoned calibration not marked degraded")
	}
	if m.Fault == "" {
		t.Fatal("identity fallback did not record a fault")
	}
	if !allOnes(m.Weights) {
		t.Fatal("fallback weights are not identity")
	}
	if len(m.Attempts) != 3 {
		t.Fatalf("SCGRS ladder ran %d rungs, want 3", len(m.Attempts))
	}
	for _, a := range m.Attempts {
		if a.Rejected == "" {
			t.Fatalf("%v attempt accepted despite NaN gradients", a.Method)
		}
	}
	// Identity weights mean mGBA must reproduce GBA exactly.
	mg, _ := m.PathSlacks("mgba")
	gb, _ := m.PathSlacks("gba")
	for i := range mg {
		if mg[i] != gb[i] {
			t.Fatalf("path %d: identity mGBA slack %v != GBA %v", i, mg[i], gb[i])
		}
	}
}

// TestLadderFallsOneRung: an injected startup error on the first rung only
// must degrade to the next method, which then succeeds.
func TestLadderFallsOneRung(t *testing.T) {
	g, cfg := smallDesign(t)
	calls := 0
	faultinject.SetError(faultinject.SolverStart, func() error {
		calls++
		if calls == 1 {
			return errors.New("injected solver startup failure")
		}
		return nil
	})
	defer faultinject.Reset()
	m, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded {
		t.Fatal("fallback fit not marked degraded")
	}
	if m.Fault != "" {
		t.Fatalf("one-rung fallback should not reach identity, fault: %s", m.Fault)
	}
	if len(m.Attempts) < 2 {
		t.Fatalf("only %d attempts recorded", len(m.Attempts))
	}
	if m.Attempts[0].Rejected == "" {
		t.Fatal("first attempt not rejected")
	}
	if m.Attempts[1].Rejected != "" {
		t.Fatalf("second attempt rejected: %s", m.Attempts[1].Rejected)
	}
	if allOnes(m.Weights) {
		t.Fatal("fallback rung produced no fit at all")
	}
}

// TestEq5NoOptimism: under default options every fit — cold on the
// suite designs, incremental after a sizing batch, and every corner of an
// independent or joint multi-corner fit — leaves zero training paths
// optimistic beyond the Eq. (5) epsilon guard.
func TestEq5NoOptimism(t *testing.T) {
	ctx := context.Background()
	suite := gen.Suite()
	type tcase struct {
		name  string
		model func(t *testing.T) *core.Model
	}
	var cases []tcase
	for _, cfg := range suite {
		cases = append(cases, tcase{cfg.Name + "/cold", func(t *testing.T) *core.Model {
			g := suiteGraph(t, cfg)
			m, err := core.Calibrate(ctx, g, sta.DefaultConfig(), core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			return m
		}})
	}
	cases = append(cases, tcase{"D3/incremental", func(t *testing.T) *core.Model {
		g := suiteGraph(t, suite[2])
		cal, err := core.NewCalibrator(engine.NewSession(g), sta.DefaultConfig(), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		m, err := cal.Calibrate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := cal.Recalibrate(ctx, upsizeSelected(t, g.D, g, m, 25))
		if err != nil {
			t.Fatal(err)
		}
		if st := cal.Stats(); st.Incremental != 1 {
			t.Fatalf("recalibration ran cold: %+v", st)
		}
		return mr
	}})
	for _, joint := range []bool{false, true} {
		cases = append(cases, tcase{fmt.Sprintf("D10/corners/joint=%v", joint), func(t *testing.T) *core.Model {
			set, err := core.ParseCorners("typ,slow:1.15:10")
			if err != nil {
				t.Fatal(err)
			}
			opt := core.DefaultOptions()
			opt.Corners, opt.JointFit = set, joint
			m, err := core.Calibrate(ctx, suiteGraph(t, suite[9]), sta.DefaultConfig(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Corners) != len(set) {
				t.Fatalf("got %d corner fits, want %d", len(m.Corners), len(set))
			}
			return m
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model(t)
			met, err := m.Evaluate("mgba")
			if err != nil {
				t.Fatal(err)
			}
			if met.Paths == 0 {
				t.Fatal("fit covers no paths")
			}
			if met.Optimism != 0 {
				t.Errorf("%d of %d paths optimistic past the Eq. (5) guard", met.Optimism, met.Paths)
			}
			for _, cf := range m.Corners {
				cm, err := cf.Evaluate("mgba", m.Opt.Epsilon)
				if err != nil {
					t.Fatal(err)
				}
				if cm.Optimism != 0 {
					t.Errorf("corner %s: %d of %d paths optimistic", cf.Spec.Name, cm.Optimism, cm.Paths)
				}
			}
		})
	}
}

// TestPrerouteIdentityFallbackNotOptimistic: the cross-stage pair's cheap
// view is optimistic on many paths, so when every solver rung is rejected
// the identity fallback itself must be projected onto Eq. (5) — plain
// identity weights would leave those paths optimistic.
func TestPrerouteIdentityFallbackNotOptimistic(t *testing.T) {
	_, _, sess := calDesign(t)
	faultinject.SetSlice(faultinject.SolverGradient, func(v []float64) {
		for i := range v {
			v[i] = math.NaN()
		}
	})
	defer faultinject.Reset()
	opt := core.DefaultOptions()
	opt.ViewPair = core.PreroutePair
	m, err := core.CalibrateWithSession(context.Background(), sess, sta.DefaultConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded || m.Fault == "" {
		t.Fatalf("poisoned calibration did not fall back: degraded=%v fault=%q", m.Degraded, m.Fault)
	}
	cheap, err := m.Evaluate("cheap")
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Optimism == 0 {
		t.Fatal("pre-route view optimistic on no path; the fallback case is vacuous")
	}
	met, err := m.Evaluate("mgba")
	if err != nil {
		t.Fatal(err)
	}
	if met.Optimism != 0 {
		t.Fatalf("identity fallback left %d of %d paths optimistic", met.Optimism, met.Paths)
	}
	if allOnes(m.Weights) {
		t.Fatal("fallback weights were not lifted")
	}
}

// TestDivergentStepsStaySafe: steps amplified 1e12x must either be
// rejected down the ladder or survive with the Eq. (5) projection applied
// — in every case the final model obeys Eq. (5) on the selection.
func TestDivergentStepsStaySafe(t *testing.T) {
	g, cfg := smallDesign(t)
	faultinject.SetFloat(faultinject.SolverStep, func(v float64) float64 { return v * 1e12 })
	defer faultinject.Reset()
	opt := core.DefaultOptions()
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatal("non-finite weight escaped the pipeline")
		}
	}
	if !m.Degraded && !allOnes(m.Weights) {
		t.Fatal("divergent solve accepted as healthy")
	}
	// Eq. 5 on the training selection: s_mgba <= s_pba + eps*|s_pba|.
	mg, err := m.PathSlacks("mgba")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := m.PathSlacks("pba")
	for i := range mg {
		if mg[i] > pb[i]+opt.Epsilon*math.Abs(pb[i])+1e-9 {
			t.Fatalf("path %d optimistic: mGBA %v vs PBA %v", i, mg[i], pb[i])
		}
	}
}

// TestCalibrateCancelledContext: an already-cancelled context must yield a
// usable identity model immediately — no error, no panic, non-nil
// selection — because callers dereference the model unconditionally.
func TestCalibrateCancelledContext(t *testing.T) {
	g, cfg := smallDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := core.Calibrate(ctx, g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Partial || !m.Degraded {
		t.Fatalf("cancelled calibration not marked partial+degraded: %+v / %+v", m.Partial, m.Degraded)
	}
	if m.Selection == nil {
		t.Fatal("cancelled calibration returned nil selection")
	}
	if !allOnes(m.Weights) {
		t.Fatal("cancelled calibration returned non-identity weights")
	}
	if m.MGBA != m.GBA {
		t.Fatal("cancelled calibration should reuse the GBA view")
	}
	if m.MGBA == nil {
		t.Fatal("cancelled calibration returned no timing view")
	}
}

// TestCancelledMidSolveScalesBack: cancelling during the solver run must
// accept the partial iterate only with the Eq. (5) projection applied.
func TestCancelledMidSolveScalesBack(t *testing.T) {
	g, cfg := smallDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	faultinject.SetFloat(faultinject.SolverStep, func(v float64) float64 {
		steps++
		if steps == 40 {
			cancel()
		}
		return v
	})
	defer faultinject.Reset()
	m, err := core.Calibrate(ctx, g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Partial {
		t.Skip("solver finished before the cancel landed; nothing to assert")
	}
	mg, err := m.PathSlacks("mgba")
	if err != nil {
		// Identity fallback: trivially safe.
		return
	}
	pb, _ := m.PathSlacks("pba")
	for i := range mg {
		if mg[i] > pb[i]+m.Opt.Epsilon*math.Abs(pb[i])+1e-9 {
			t.Fatalf("partial fit optimistic on path %d: mGBA %v vs PBA %v", i, mg[i], pb[i])
		}
	}
}

// TestConvergedFlagOnHealthyFit: the accepted attempt of a healthy
// calibration reports a terminal stop reason.
func TestConvergedFlagOnHealthyFit(t *testing.T) {
	g, cfg := smallDesign(t)
	m, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Degraded {
		t.Skip("fixture unexpectedly degraded")
	}
	if !m.Stats.Converged {
		t.Fatalf("healthy fit did not converge: reason %v", m.Stats.Reason)
	}
	if m.Stats.Reason == solver.StopNone {
		t.Fatal("stop reason not recorded")
	}
}

// TestCorruptedWarmStartRejected: corrupted warm weights must never steer
// the fit. NaN entries fail the positivity filter and are dropped before
// the solver (the calibration proceeds exactly as if unseeded); infinite
// entries pass the filter, trip every rung's non-finite detector, and land
// the ladder on identity weights. Neither panics, errors, or goes
// optimistic.
func TestCorruptedWarmStartRejected(t *testing.T) {
	g, cfg := smallDesign(t)

	// NaN warm start: filtered out, bitwise-equal to an unseeded run.
	opt := core.DefaultOptions()
	opt.WarmWeights = make([]float64, len(g.D.Instances))
	for i := range opt.WarmWeights {
		opt.WarmWeights[i] = math.NaN()
	}
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Degraded || m.Fault != "" {
		t.Fatalf("NaN warm start degraded the fit: fault=%q", m.Fault)
	}
	for i := range m.Weights {
		if m.Weights[i] != ref.Weights[i] {
			t.Fatalf("NaN warm start steered the fit: weight %d is %v, unseeded %v",
				i, m.Weights[i], ref.Weights[i])
		}
	}

	// Infinite warm start: reaches the solver, rejected on every rung.
	for i := range opt.WarmWeights {
		opt.WarmWeights[i] = math.Inf(1)
	}
	m, err = core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded || m.Fault == "" {
		t.Fatalf("infinite warm start not rejected: degraded=%v fault=%q", m.Degraded, m.Fault)
	}
	if !allOnes(m.Weights) {
		t.Fatal("infinite warm start leaked non-identity weights")
	}
	for _, a := range m.Attempts {
		if a.Rejected == "" {
			t.Fatalf("%v attempt accepted an infinite warm start", a.Method)
		}
	}
}

// TestCalibratorRecoversFromCorruptedWarmStart: a calibrator seeded with a
// poisoned warm start must degrade to identity on the first calibration and
// then recover on the next one (the identity outcome replaces the warm
// start), without any cache poisoning in between.
func TestCalibratorRecoversFromCorruptedWarmStart(t *testing.T) {
	g, cfg := smallDesign(t)
	sess := engine.NewSession(g)
	cal, err := core.NewCalibrator(sess, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]float64, len(g.D.Instances))
	for i := range bad {
		bad[i] = math.Inf(1)
	}
	cal.SetWarmWeights(bad)
	m0, err := cal.Calibrate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !allOnes(m0.Weights) {
		t.Fatal("infinite warm start leaked non-identity weights")
	}
	m1, err := cal.Recalibrate(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fault != "" || m1.Degraded {
		t.Fatalf("calibrator did not recover after poisoned warm start: fault=%q degraded=%v",
			m1.Fault, m1.Degraded)
	}
	if allOnes(m1.Weights) {
		t.Fatal("recovered calibration produced no correction on a violating design")
	}
}
