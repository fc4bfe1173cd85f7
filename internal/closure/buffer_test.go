package closure_test

import (
	"testing"

	"mgba/internal/closure"
	"mgba/internal/fixtures"
	"mgba/internal/obs"
)

// TestBufferIncrementalMatchesCold extends the incremental-calibration
// contract to buffer insertion: on the buffer motif, where an insertion is
// accepted, the default flow — the calibrator rebound to the trial session
// and grown by the new instance — must walk the same transform sequence
// and land on bit-identical QoR, weights and design as the
// ColdRecalibrate ablation, and the calibrations after the accepted
// buffer must actually run incrementally.
func TestBufferIncrementalMatchesCold(t *testing.T) {
	runFlow := func(cold bool) (*closure.Result, string, map[string]any) {
		d, err := fixtures.BufferCase()
		if err != nil {
			t.Fatal(err)
		}
		opt := closure.DefaultOptions(closure.TimerMGBA)
		opt.ColdRecalibrate = cold
		prev := obs.Enabled()
		obs.Enable(true)
		obs.Reset()
		res, err := closure.Optimize(d, opt)
		snap := obs.Snapshot()
		obs.Enable(prev)
		if err != nil {
			t.Fatal(err)
		}
		return res, hashDesign(d), snap
	}

	inc, incHash, counts := runFlow(false)
	cold, coldHash, _ := runFlow(true)

	if inc.BuffersAdded == 0 {
		t.Fatalf("no buffer accepted; fixture too tame: kinds=%v", inc.Kinds)
	}
	if n := counts["core.calibrations.rebinds"].(int64); n == 0 {
		t.Error("the accepted buffer never rebound the calibrator")
	}
	if n := counts["core.calibrations.incremental"].(int64); n == 0 {
		t.Error("no incremental calibration followed the accepted buffer")
	}
	if n := counts["core.calibrations.cold.shape_change"].(int64); n != 0 {
		t.Errorf("%d calibrations went cold on a shape change", n)
	}
	if incHash != coldHash {
		t.Fatalf("final designs diverge: %s vs %s", incHash, coldHash)
	}
	if inc.Transforms != cold.Transforms || inc.Calibrations != cold.Calibrations {
		t.Fatalf("transform/calibration counts differ: %d/%d vs %d/%d",
			inc.Transforms, inc.Calibrations, cold.Transforms, cold.Calibrations)
	}
	for k, n := range cold.Kinds {
		if inc.Kinds[k] != n {
			t.Fatalf("kind %s count differs: %d vs %d", k, inc.Kinds[k], n)
		}
	}
	if inc.TimerWNS != cold.TimerWNS || inc.TimerTNS != cold.TimerTNS ||
		inc.SignoffWNS != cold.SignoffWNS || inc.SignoffTNS != cold.SignoffTNS {
		t.Fatalf("QoR differs: timer %v/%v %v/%v signoff %v/%v %v/%v",
			inc.TimerWNS, cold.TimerWNS, inc.TimerTNS, cold.TimerTNS,
			inc.SignoffWNS, cold.SignoffWNS, inc.SignoffTNS, cold.SignoffTNS)
	}
	if hashWeights(inc.Weights) != hashWeights(cold.Weights) {
		t.Fatal("calibration weights diverge between incremental and cold")
	}
}
