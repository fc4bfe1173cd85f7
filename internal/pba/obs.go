package pba

import "mgba/internal/obs"

// PBA metrics: exact-path enumeration and retiming volume. kWorst and
// Retime run inside parallel workers, so the counters lean on their
// atomic, allocation-free increments; they record totals only and never
// influence enumeration order (obs inertness contract).
var (
	obsPathsEnumerated = obs.NewCounter("pba.paths.enumerated")
	obsEndpointsSwept  = obs.NewCounter("pba.endpoints.swept")
	obsRetimes         = obs.NewCounter("pba.retimes")
	obsFanoutGauge     = obs.NewGauge("pba.last.endpoint_fanout")

	// Search volume: non-flip-flop states popped and expanded, and emitted
	// paths that are pin-parallel copies (every copy of a collapsed suffix
	// beyond its first).
	obsStatesExpanded   = obs.NewCounter("pba.states.expanded")
	obsPathsPinParallel = obs.NewCounter("pba.paths.pin_parallel")
)
