package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mgba/internal/core"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/obs"
	"mgba/internal/sta"
)

// TestObsOnOffCalibrationBitIdentical is the inertness contract of the
// observability layer at the calibration level: enabling metrics, spans
// and the JSONL event sink must not move a single bit of the fitted
// model — same RNG streams, same ordered combines, same weights — at
// serial and parallel settings alike (the D3 suite design, Parallelism
// 1 and 4).
func TestObsOnOffCalibrationBitIdentical(t *testing.T) {
	cfg := gen.Suite()[2] // D3
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}

	calibrate := func(par int, on bool) *core.Model {
		t.Helper()
		prev := obs.Enabled()
		defer obs.Enable(prev)
		obs.Enable(on)
		if on {
			// Exercise the full instrumented path, sink included.
			var sink bytes.Buffer
			obs.SetSink(&sink)
			defer obs.SetSink(nil)
		}
		scfg := sta.DefaultConfig()
		scfg.Parallelism = par
		m, err := core.Calibrate(context.Background(), g, scfg, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			off := calibrate(par, false)
			on := calibrate(par, true)
			if len(off.Selection.Paths) == 0 {
				t.Fatal("fixture too tame: no violated paths selected")
			}
			if len(on.Weights) != len(off.Weights) {
				t.Fatalf("weight lengths differ: %d vs %d", len(on.Weights), len(off.Weights))
			}
			for i := range off.Weights {
				if on.Weights[i] != off.Weights[i] {
					t.Fatalf("weights diverge at %d: obs-on %v vs obs-off %v",
						i, on.Weights[i], off.Weights[i])
				}
			}
			if len(on.Correction) != len(off.Correction) {
				t.Fatalf("correction lengths differ: %d vs %d", len(on.Correction), len(off.Correction))
			}
			for i := range off.Correction {
				if on.Correction[i] != off.Correction[i] {
					t.Fatalf("correction diverges at %d: %v vs %v",
						i, on.Correction[i], off.Correction[i])
				}
			}
			if on.Stats.Iters != off.Stats.Iters || on.Stats.Objective != off.Stats.Objective {
				t.Fatalf("solver trajectory differs: iters %d/%d, objective %v/%v",
					on.Stats.Iters, off.Stats.Iters, on.Stats.Objective, off.Stats.Objective)
			}
			if on.Degraded != off.Degraded {
				t.Fatalf("degradation differs: %v vs %v", on.Degraded, off.Degraded)
			}
		})
	}
}

// TestSafetyProjectionObserved: the default D3 fit leaves rows short of
// their Eq. (5) floor, so the projection must lift at least one and report
// it through core.safety.rows_projected and a safety_projection event
// carrying the same count.
func TestSafetyProjectionObserved(t *testing.T) {
	g := suiteGraph(t, gen.Suite()[2]) // D3
	prev := obs.Enabled()
	defer obs.Enable(prev)
	obs.Enable(true)
	var sink bytes.Buffer
	obs.SetSink(&sink)
	defer obs.SetSink(nil)
	projected := obs.NewCounter("core.safety.rows_projected")
	before := projected.Value()
	if _, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	rows := projected.Value() - before
	if rows < 1 {
		t.Fatalf("default D3 fit projected %d rows, want at least 1", rows)
	}
	var evRows int64
	dec := json.NewDecoder(&sink)
	for dec.More() {
		var ev struct {
			Kind   string
			Fields map[string]any
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "safety_projection" {
			evRows += int64(ev.Fields["rows"].(float64))
		}
	}
	if evRows != rows {
		t.Fatalf("safety_projection events carry %d rows, counter moved by %d", evRows, rows)
	}
}
