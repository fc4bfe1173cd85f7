package core

import "mgba/internal/obs"

// Calibration metrics: pipeline outcomes, warm-start reuse, the solver
// degradation ladder, and the rows the Eq. (5) projection lifted. Phase timings live in the span histograms
// (span.calibrate.cold.*, span.calibrate.recalibrate.*) emitted by the
// Calibrator. Observation-only per the obs inertness contract.
var (
	obsCalibCold        = obs.NewCounter("core.calibrations.cold")
	obsCalibIncremental = obs.NewCounter("core.calibrations.incremental")
	obsCalibRebinds     = obs.NewCounter("core.calibrations.rebinds")
	obsCalibDegraded    = obs.NewCounter("core.calibrations.degraded")
	obsCalibAbandoned   = obs.NewCounter("core.calibrations.abandoned")
	obsWarmStartHits    = obs.NewCounter("core.warm_start.hits")
	obsLadderAttempts   = obs.NewCounter("core.ladder.attempts")
	obsLadderRejected   = obs.NewCounter("core.ladder.rejected")
	obsEndpointsReenum  = obs.NewCounter("core.endpoints.reenumerated")
	obsRowsProjected    = obs.NewCounter("core.safety.rows_projected")
)

// coldReason names why a calibration ran the full cold pipeline. Every
// cold calibration counts under exactly one reason,
// core.calibrations.cold.<reason>, so the reasons sum to
// core.calibrations.cold; each also emits a calibration_cold event. As an
// error it asks Recalibrate to fall back to a cold calibration.
type coldReason string

const (
	coldRequested       coldReason = "requested"        // Calibrate, or a one-shot calibration
	coldNoCache         coldReason = "no_cache"         // first call, or the cache was dropped
	coldShapeChange     coldReason = "shape_change"     // Rebind to a graph the cache cannot grow into
	coldUnknownInstance coldReason = "unknown_instance" // dirty instance outside the bound graph
	coldClockInstance   coldReason = "clock_instance"   // dirty clock-tree instance
	coldGoldenUpdate    coldReason = "golden_update"    // the golden view's incremental Update failed
	coldPathCap         coldReason = "path_cap"         // the MaxPaths cap now truncates the selection
)

func (r coldReason) Error() string { return "core: cold calibration needed: " + string(r) }

var obsColdReasons = func() map[coldReason]*obs.Counter {
	m := make(map[coldReason]*obs.Counter)
	for _, r := range []coldReason{coldRequested, coldNoCache, coldShapeChange,
		coldUnknownInstance, coldClockInstance, coldGoldenUpdate, coldPathCap} {
		m[r] = obs.NewCounter("core.calibrations.cold." + string(r))
	}
	return m
}()

// note counts one cold calibration under the reason and emits its event.
func (r coldReason) note() {
	obsColdReasons[r].Inc()
	obs.Event("calibration_cold", "reason", string(r))
}
