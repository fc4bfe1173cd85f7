package closure

import (
	"context"
	"math"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/sta"
	"mgba/internal/transform"
)

// trialFlow sets a flow up on d the way run does, through its first
// calibration, so single trials can be driven and inspected.
func trialFlow(t *testing.T, d *netlist.Design, opt Options) *flow {
	t.Helper()
	f, err := newFlow(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.calibrate(); err != nil {
		t.Fatal(err)
	}
	return f
}

// bufferTrials offers each violating endpoint's worst path to the buffer
// transform, in endpoint order, running trials until stop says so. before
// runs ahead of each trial; stop sees its outcome.
func bufferTrials(t *testing.T, f *flow, before func(), stop func(accepted bool) bool) {
	t.Helper()
	tr := f.reg.ByKind("buffer")
	for fi, s := range f.views[0].r.Slack {
		if s >= 0 {
			continue
		}
		for _, c := range tr.Propose(f.analysis(), fi, transform.WorstPath(f.analysis(), fi)) {
			before()
			ok, err := f.tryCandidate(tr, fi, c)
			if err != nil {
				t.Fatal(err)
			}
			if stop(ok) {
				return
			}
		}
	}
}

// requireSameTiming asserts that got, a view of graph-prefix instances,
// times every instance and endpoint bitwise like want.
func requireSameTiming(t *testing.T, want, got *sta.Result, label string) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for v := range got.ArrivalOut {
		if !same(want.ArrivalOut[v], got.ArrivalOut[v]) || !same(want.RequiredOut[v], got.RequiredOut[v]) ||
			!same(want.CellDelay[v], got.CellDelay[v]) || !same(want.Slew[v], got.Slew[v]) {
			t.Fatalf("%s: instance %d timing differs", label, v)
		}
	}
	for fi := range want.Slack {
		if !same(want.Slack[fi], got.Slack[fi]) {
			t.Fatalf("%s: endpoint %d slack %v != %v", label, fi, got.Slack[fi], want.Slack[fi])
		}
	}
	if !same(want.WNS, got.WNS) || !same(want.TNS, got.TNS) {
		t.Fatalf("%s: WNS/TNS %v/%v != %v/%v", label, got.WNS, got.TNS, want.WNS, want.TNS)
	}
}

// TestRejectedBufferTrialKeepsSession: a rejected buffer trial on D3 must
// leave the pre-trial graph, session, Result and calibrator in place, and
// that kept view must time the reverted design — which now carries a dead
// instance past the graph's arrays — bitwise like a full Run on a freshly
// built graph. The kept session must then keep working: an in-place
// Update, an incremental recalibration and the sign-off all match a fresh
// graph of the design.
func TestRejectedBufferTrialKeepsSession(t *testing.T) {
	d, err := gen.Generate(gen.Suite()[2])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(TimerMGBA)
	f := trialFlow(t, d, opt)
	// Early in the flow some insertions still win; trial until one loses.
	var g0 *graph.Graph
	var sess0 *engine.Session
	var r0 *sta.Result
	var stale0 bool
	rejected := false
	bufferTrials(t, f, func() {
		g0, sess0, r0, stale0 = f.g, f.sess, f.views[0].r, f.calStale
	}, func(accepted bool) bool {
		rejected = !accepted
		return rejected
	})
	if !rejected {
		t.Fatal("no buffer trial was rejected")
	}
	if f.g != g0 || f.sess != sess0 || f.views[0].r != r0 || f.calStale != stale0 {
		t.Fatal("a rejected trial replaced the flow's graph, session, result or calibrator state")
	}
	if last := d.Instances[len(d.Instances)-1]; len(d.Instances) <= g0.NumInstances() || !last.Dead {
		t.Fatalf("expected a dead trial buffer past the graph's %d instances", g0.NumInstances())
	}

	fresh := func() (*engine.Session, sta.Config) {
		g, err := graph.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		cfg := opt.STA
		cfg.Weights = f.views[0].weights
		return engine.NewSession(g), cfg
	}
	s, cfg := fresh()
	requireSameTiming(t, s.Run(cfg), f.views[0].r, "kept result after a rejected trial")

	// An in-place resize on the kept session.
	path := transform.WorstPath(f.analysis(), f.worstEndpoint())
	id := path[len(path)-1]
	up := d.Lib.Upsize(d.Instances[id].Cell)
	if up == nil {
		t.Fatal("worst path ends in a gate at maximum drive")
	}
	if err := d.Resize(d.Instances[id], up); err != nil {
		t.Fatal(err)
	}
	mod := transform.ModifiedSet(d, f.g, id)
	f.update(mod)
	f.noteDirty(mod)
	s, cfg = fresh()
	requireSameTiming(t, s.Run(cfg), f.views[0].r, "update with a dead trailing instance")

	// An incremental recalibration on the kept session, against a cold one
	// on a fresh graph warm-started from the same weights.
	warm := append([]float64(nil), f.views[0].weights...)
	if err := f.calibrate(); err != nil {
		t.Fatal(err)
	}
	if st := f.cal.Stats(); st.Cold != 1 || st.Incremental != 1 {
		t.Fatalf("recalibration did not run incrementally: %+v", st)
	}
	coldOpt := opt.Core
	coldOpt.WarmWeights = warm
	s, _ = fresh()
	m, err := core.CalibrateWithSession(context.Background(), s, opt.STA, coldOpt)
	if err != nil {
		t.Fatal(err)
	}
	w := f.views[0].weights
	if len(m.Weights) != len(w) {
		t.Fatalf("weight lengths differ: cold %d, incremental %d", len(m.Weights), len(w))
	}
	for i := range m.Weights {
		if m.Weights[i] != w[i] {
			t.Fatalf("weight %d differs: cold %v, incremental %v", i, m.Weights[i], w[i])
		}
	}

	wns, tns := signoff(f.sess, opt.STA)
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if fw, ft := Signoff(g, opt.STA); fw != wns || ft != tns {
		t.Fatalf("sign-off on the kept session %v/%v, on a fresh graph %v/%v", wns, tns, fw, ft)
	}
}

// worstEndpoint returns the endpoint with the worst slack in the flow's
// view.
func (f *flow) worstEndpoint() int {
	worst, fi := math.Inf(1), -1
	for i, s := range f.views[0].r.Slack {
		if s < worst {
			worst, fi = s, i
		}
	}
	return fi
}

// TestBufferTrialCornerVeto: a multi-corner flow applies the per-corner
// no-regression veto to buffer trials. The motif's winning insertion is
// accepted under the plain corner set; with the trial buffer made slow in
// the extra corner alone, the same trial must be rejected and reverted,
// leaving the flow's views in place.
func TestBufferTrialCornerVeto(t *testing.T) {
	corners, err := core.ParseCorners("typ,slow:1.1")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(TimerMGBA)
	opt.Core.Corners = corners

	d, err := fixtures.BufferCase()
	if err != nil {
		t.Fatal(err)
	}
	f := trialFlow(t, d, opt)
	if len(f.views) != 2 {
		t.Fatalf("flow keeps %d corner views, want 2", len(f.views))
	}
	accepted := false
	bufferTrials(t, f, func() {}, func(ok bool) bool {
		accepted = ok
		return ok
	})
	if !accepted {
		t.Fatal("no buffer trial accepted under the plain corner set")
	}

	d, err = fixtures.BufferCase()
	if err != nil {
		t.Fatal(err)
	}
	f = trialFlow(t, d, opt)
	sess0, cview0, n0 := f.sess, f.views[1].r, len(d.Instances)
	// Every trial buffer is appended at the end of the instance list (a
	// rejected one stays there, dead and untimed): make each of them slow
	// in the extra corner only.
	slow := make(map[int]float64)
	for id := n0; id < n0+len(d.FFs); id++ {
		slow[id] = 1e4
	}
	f.views[1].cfg.DelayOverride = slow
	trials := 0
	bufferTrials(t, f, func() { trials++ }, func(ok bool) bool {
		accepted = ok
		return ok
	})
	if accepted || trials == 0 {
		t.Fatalf("%d trials, accepted %v: the corner veto did not hold", trials, accepted)
	}
	if f.sess != sess0 || f.views[1].r != cview0 || d.BufferCount() != 0 {
		t.Fatal("a vetoed trial was not unwound")
	}
}

// TestRebuiltViewsMatchCalibration: re-timing an unedited design on a
// rebuilt session — what every structural trial does — must reproduce
// each calibrated corner view bit for bit. Each corner keeps its own
// config (the selection corner's uncertainty and scaled derates too) and
// its own weights.
func TestRebuiltViewsMatchCalibration(t *testing.T) {
	corners, err := core.ParseCorners("slow:1.15:10,typ")
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Generate(gen.Suite()[2])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(TimerMGBA)
	opt.Core.Corners = corners
	f := trialFlow(t, d, opt)
	if len(f.views) != 2 {
		t.Fatalf("flow keeps %d corner views, want 2", len(f.views))
	}
	tr, err := f.buildTrial()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f.views {
		requireSameTiming(t, v.r, tr.rs[i], "rebuilt corner "+corners[i].Name)
	}
}

// TestUpsizeTrialCornerVeto is the in-place counterpart of
// TestBufferTrialCornerVeto: an upsize accepted under the plain corner set
// must be rejected and reverted once the extra corner pins the upsized
// gate at a huge delay — the upsize then only loads the gate's drivers on
// that corner's worst path. After the veto every corner view must time
// the design exactly as a fresh run does.
func TestUpsizeTrialCornerVeto(t *testing.T) {
	corners, err := core.ParseCorners("typ,slow:1.1")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(TimerMGBA)
	opt.Core.Corners = corners
	design := func() *netlist.Design {
		d, err := gen.Generate(gen.Suite()[2])
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// The first upsize of the worst endpoint's path that the plain corner
	// set accepts.
	f := trialFlow(t, design(), opt)
	fi := f.worstEndpoint()
	tr := f.reg.ByKind("upsize")
	var picked transform.Candidate
	accepted := false
	for _, c := range tr.Propose(f.analysis(), fi, transform.WorstPath(f.analysis(), fi)) {
		ok, err := f.tryCandidate(tr, fi, c)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			picked, accepted = c, true
			break
		}
	}
	if !accepted {
		t.Fatal("no upsize accepted under the plain corner set")
	}

	d := design()
	f = trialFlow(t, d, opt)
	f.views[1].cfg.DelayOverride = map[int]float64{picked.Target: 1e4}
	f.retire(f.timeOn(f.sess))
	cell := d.Instances[picked.Target].Cell
	ok, err := f.tryCandidate(tr, fi, picked)
	if err != nil {
		t.Fatal(err)
	}
	if ok || d.Instances[picked.Target].Cell != cell {
		t.Fatal("the corner veto did not reject and revert the upsize")
	}
	for i, r := range f.timeOn(f.sess) {
		requireSameTiming(t, r, f.views[i].r, "corner "+corners[i].Name+" after a vetoed upsize")
	}
}
