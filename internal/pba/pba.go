// Package pba implements path-based analysis: exact per-path timing with
// path-specific AOCV derating, path-specific slew propagation and exact
// clock-reconvergence-pessimism credit. Its results are the golden
// reference the mGBA weights are fitted against (§2.2 of the paper).
//
// Because enumerating every path of a real design is intractable, the
// package provides a per-endpoint k-worst-path enumerator over the GBA
// timing graph: paths pop in exactly descending GBA-arrival order, so the
// k worst GBA-slack paths of an endpoint come out first. The critical-path
// selection schemes of §3.2 are built on top of this in internal/pathsel.
//
// Paths are counted per fanin edge, so a gate that reads one net on several
// input pins multiplies the paths through it. The search expands each
// distinct driver once and carries that multiplicity, emitting the copies
// together (see KWorst); the output equals a per-edge search's.
package pba

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"

	"mgba/internal/engine"
	"mgba/internal/faultinject"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/par"
	"mgba/internal/sta"
)

// Path is one register-to-register path found by the enumerator. Cells
// lists the delay-carrying instances in path order: the launch FF (whose
// CK->Q arc is derated like a data cell) followed by the combinational
// gates. The capture FF contributes its setup time, not a cell delay.
type Path struct {
	Launch  int   // launch FF instance ID
	Capture int   // capture FF instance ID (the endpoint)
	Cells   []int // launch FF followed by combinational gate instance IDs

	GBAArrival float64 // data arrival at the D pin under GBA
	GBASlack   float64 // setup slack under GBA (conservative CRPR credit applied)
}

// NumGates returns the combinational cell depth of the path (PBA depth).
func (p *Path) NumGates() int { return len(p.Cells) - 1 }

// Timing is the exact PBA retiming of one path.
type Timing struct {
	Path *Path

	Depth      int     // combinational cell depth used for the AOCV lookup
	Distance   float64 // launch-to-capture endpoint distance, um
	LateDerate float64 // the single path-specific late factor
	CRPR       float64 // clock reconvergence credit added to the slack

	CellSum float64 // sum of path-specific derated cell delays
	WireSum float64 // sum of (underated) wire delays along the path
	Arrival float64 // data arrival at the D pin under PBA
	Slack   float64 // setup slack under PBA
}

// Analyzer retimes paths exactly against a finished GBA analysis (the GBA
// result supplies clock insertion delays, budgets and the graph). Because
// every Result is backed by an engine.Session, the exact per-pair CRPR
// credits consulted by Retime come from the session's precomputed
// leaf-pair matrix — repeated retiming never re-walks the clock tree.
type Analyzer struct {
	R *sta.Result
}

// NewAnalyzer wraps a GBA result for path retiming. The result must stay
// unreleased for the analyzer's lifetime.
func NewAnalyzer(r *sta.Result) *Analyzer { return &Analyzer{R: r} }

// Session returns the timing session backing the wrapped analysis.
func (a *Analyzer) Session() *engine.Session { return a.R.S }

// Budget returns the slack budget of an endpoint (D.FFs position):
// period + early capture clock - setup. Slack = budget + CRPR - arrival.
func (a *Analyzer) Budget(captureIdx int) float64 {
	d := a.R.G.D
	ff := d.Instances[d.FFs[captureIdx]]
	return d.ClockPeriod + a.R.ClockEarly[captureIdx] - ff.Cell.Setup - a.R.Cfg.Uncertainty
}

// Retime computes the exact PBA timing of p: the path-specific AOCV late
// factor at the path's true depth and endpoint distance, slew propagated
// along the path only, and the exact CRPR credit of the launch/capture
// clock pair.
func (a *Analyzer) Retime(p *Path) *Timing {
	obsRetimes.Inc()
	r := a.R
	d := r.G.D
	launch := d.Instances[p.Launch]
	capture := d.Instances[p.Capture]

	depth := p.NumGates()
	dist := netlist.Distance(launch, capture)
	late := 1.0
	if r.Cfg.DerateData {
		lookupDepth := float64(depth)
		if lookupDepth < 1 {
			lookupDepth = 1 // direct FF-to-FF transfer
		}
		derates := r.Cfg.Derates
		if derates == nil {
			derates = d.Derates
		}
		late = derates.Late.Lookup(lookupDepth, dist)
	}

	var cellSum, wireSum, slew float64
	for _, v := range p.Cells {
		in := d.Instances[v]
		var nom float64
		if ov, ok := r.Cfg.DelayOverride[v]; ok {
			nom = ov
			slew = 0
		} else {
			load := d.LoadCap(d.Nets[in.Output])
			nom = in.Cell.Delay(load, slew)
			slew = in.Cell.OutputSlew(load, slew)
		}
		w := 1.0
		if r.Cfg.Weights != nil {
			// Weighted retiming is only meaningful for mGBA validation;
			// golden PBA uses unit weights. Kept for completeness.
			w = r.Cfg.Weights[v]
		}
		cellSum += nom * late * w
		wireSum += r.WireDelay[v]
	}

	launchIdx := r.G.FFIndex(p.Launch)
	captureIdx := r.G.FFIndex(p.Capture)
	crpr := r.CRPRCredit(launchIdx, captureIdx)
	arrival := r.ClockLate[launchIdx] + cellSum + wireSum
	slack := a.Budget(captureIdx) + crpr - arrival
	return &Timing{
		Path:       p,
		Depth:      depth,
		Distance:   dist,
		LateDerate: late,
		CRPR:       crpr,
		CellSum:    cellSum,
		WireSum:    wireSum,
		Arrival:    arrival,
		Slack:      slack,
	}
}

// searchState is a partial path suffix during backward best-first search:
// everything from inst's output pin to the endpoint's D pin is fixed and
// costs tail picoseconds under GBA. One state stands for mult pin-parallel
// copies of the suffix: a gate reading the same driver net on several input
// pins has several fanin edges from it, and every choice of edge yields the
// same cell sequence with the same delays.
type searchState struct {
	inst   int
	mult   int // pin-parallel copies of this suffix, saturated at k
	tail   float64
	parent *searchState // towards the endpoint
	bound  float64      // ArrivalOut[inst] + tail: exact max completion
}

type stateHeap []*searchState

func (h stateHeap) Len() int           { return len(h) }
func (h stateHeap) Less(i, j int) bool { return h[i].bound > h[j].bound }
func (h stateHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x any)        { *h = append(*h, x.(*searchState)) }
func (h *stateHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// stateArena bump-allocates searchStates in fixed-size blocks. Blocks are
// never reallocated, so parent pointers between states stay valid for the
// whole enumeration; reset rewinds the arena without freeing the blocks.
type stateArena struct {
	blocks [][]searchState
	block  int // index of the block currently being filled
	used   int // entries handed out from that block
}

const arenaBlockSize = 1024

func (a *stateArena) alloc() *searchState {
	if a.block == len(a.blocks) {
		a.blocks = append(a.blocks, make([]searchState, arenaBlockSize))
	}
	s := &a.blocks[a.block][a.used]
	a.used++
	if a.used == arenaBlockSize {
		a.block++
		a.used = 0
	}
	return s
}

func (a *stateArena) reset() {
	a.block = 0
	a.used = 0
}

// enumScratch is the per-enumeration working set — the best-first heap and
// the state arena — pooled so repeated KWorst calls (one per endpoint per
// recalibration) run allocation-free in steady state.
type enumScratch struct {
	heap  stateHeap
	arena stateArena
}

var scratchPool = sync.Pool{New: func() any { return new(enumScratch) }}

func getScratch() *enumScratch { return scratchPool.Get().(*enumScratch) }

func putScratch(sc *enumScratch) {
	sc.heap = sc.heap[:0]
	sc.arena.reset()
	scratchPool.Put(sc)
}

// KWorst enumerates up to k paths ending at endpoint captureIdx (a D.FFs
// position) in descending GBA-arrival order — i.e. worst GBA slack first.
// When stopAtSlack is non-nil, enumeration also stops as soon as the next
// path's GBA slack reaches *stopAtSlack (use 0 to collect exactly the
// violated paths).
//
// The bound function ArrivalOut[v] + tail is exact for GBA delays, so every
// heap pop whose head is a flip-flop completes a genuine next-worst path;
// the enumeration order is exact, not heuristic.
//
// Paths are enumerated per fanin edge, and a gate reading one driver net on
// several input pins has several fanin edges from that driver, so the
// copies of a suffix multiply with every such gate along it. The search
// expands each distinct driver once and carries the copy count as the
// state's multiplicity: the product of the per-gate edge counts from the
// same driver along the suffix, saturated at k. Copies of a suffix have
// bit-identical tails and bounds, so a per-edge search pops them back to
// back; emitting min(mult, k-len(out)) separate but equal Paths when a
// flip-flop state pops returns the per-edge sequence without first walking
// the exponential plateau of equal-bound states. (Only a different path
// with a bit-identical arrival could interleave with the copies there;
// TestKWorstMatchesPerPinExpansion pins the equality on every preset.)
func (a *Analyzer) KWorst(captureIdx, k int, stopAtSlack *float64) []*Path {
	sc := getScratch()
	out := a.kWorst(sc, captureIdx, k, stopAtSlack)
	putScratch(sc)
	return out
}

func (a *Analyzer) kWorst(sc *enumScratch, captureIdx, k int, stopAtSlack *float64) []*Path {
	_ = faultinject.Float64(faultinject.PathEnum, float64(captureIdx))
	r := a.R
	d := r.G.D
	ffID := d.FFs[captureIdx]
	budget := a.Budget(captureIdx)

	h := &sc.heap
	sc.pushFanin(r, r.G.Fanin(ffID), nil, k)
	gbaCredit := r.GBACRPR[captureIdx]
	var out []*Path
	var expanded, pinParallel int64
	for h.Len() > 0 && len(out) < k {
		s := heap.Pop(h).(*searchState)
		in := d.Instances[s.inst]
		if in.IsFF() {
			arrival := s.bound // ArrivalOut[FF] + tail is the exact arrival
			slack := budget + gbaCredit - arrival
			if stopAtSlack != nil && slack >= *stopAtSlack {
				break // everything still enqueued is at least this good
			}
			n := min(s.mult, k-len(out))
			for c := 0; c < n; c++ {
				// Each copy owns its Cells, built as a per-edge pop built
				// them, so the pointer-form population keeps its footprint.
				cells := []int{s.inst}
				for st := s.parent; st != nil; st = st.parent {
					cells = append(cells, st.inst)
				}
				out = append(out, &Path{
					Launch:     s.inst,
					Capture:    ffID,
					Cells:      cells,
					GBAArrival: arrival,
					GBASlack:   slack,
				})
			}
			pinParallel += int64(n - 1)
			continue
		}
		expanded++
		sc.pushFanin(r, r.G.Fanin(s.inst), s, k)
	}
	sc.heap = sc.heap[:0]
	sc.arena.reset()
	obsEndpointsSwept.Inc()
	obsPathsEnumerated.Add(int64(len(out)))
	obsStatesExpanded.Add(expanded)
	obsPathsPinParallel.Add(pinParallel)
	return out
}

// pushFanin pushes one state per distinct driver in fanin (the fanin of
// parent.inst, or of the endpoint when parent is nil), in first-occurrence
// order. A driver reached through c edges carries c times the parent's
// multiplicity, saturated at k. Fanin is a handful of pins, so the
// quadratic duplicate scan is cheaper than any set.
func (sc *enumScratch) pushFanin(r *sta.Result, fanin []graph.Edge, parent *searchState, k int) {
	for i, e := range fanin {
		copies := 0
		for j, f := range fanin {
			if f.From != e.From {
				continue
			}
			if j < i {
				copies = 0 // driver already pushed at its first edge
				break
			}
			copies++
		}
		if copies == 0 {
			continue
		}
		mult, tail := copies, r.WireDelay[e.From]
		if parent != nil {
			mult *= parent.mult
			tail = parent.tail + r.CellDelay[parent.inst] + r.WireDelay[e.From]
		}
		s := sc.arena.alloc()
		*s = searchState{inst: int(e.From), mult: min(mult, k), tail: tail, parent: parent}
		s.bound = r.ArrivalOut[e.From] + tail
		heap.Push(&sc.heap, s)
	}
}

// EndpointIndices returns the D.FFs positions of every constrained
// endpoint — flip-flops with at least one data fanin — in FF order.
func (a *Analyzer) EndpointIndices() []int {
	g := a.R.G
	out := make([]int, 0, len(g.D.FFs))
	for fi, id := range g.D.FFs {
		if len(g.Fanin(id)) > 0 {
			out = append(out, fi)
		}
	}
	return out
}

// KWorstAll runs KWorst for every endpoint in endpoints (D.FFs positions)
// and returns the per-endpoint path lists in input order. The independent
// searches are fanned across a worker pool sized by parallelism (engine
// convention: 0 = NumCPU, 1 = sequential); because each endpoint's search
// is self-contained and results are slotted by input position, the output
// is identical to serial KWorst calls at every parallelism setting.
func (a *Analyzer) KWorstAll(endpoints []int, k int, stopAtSlack *float64, parallelism int) [][]*Path {
	obsFanoutGauge.SetInt(len(endpoints))
	out := make([][]*Path, len(endpoints))
	workers := engine.Workers(parallelism)
	if workers > len(endpoints) {
		workers = len(endpoints)
	}
	if workers <= 1 {
		sc := getScratch()
		for i, fi := range endpoints {
			out[i] = a.kWorst(sc, fi, k, stopAtSlack)
		}
		putScratch(sc)
		return out
	}
	// Fan out on the shared internal/par pool: each worker drains an
	// atomic endpoint counter with its own pooled scratch (endpoint costs
	// are wildly uneven, so dynamic balancing beats fixed ranges).
	var next atomic.Int64
	par.Run(workers, func() {
		sc := getScratch()
		defer putScratch(sc)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(endpoints) {
				return
			}
			out[i] = a.kWorst(sc, endpoints[i], k, stopAtSlack)
		}
	})
	return out
}

// WorstPath returns the single worst GBA path of an endpoint, or nil when
// the endpoint is unconstrained.
func (a *Analyzer) WorstPath(captureIdx int) *Path {
	ps := a.KWorst(captureIdx, 1, nil)
	if len(ps) == 0 {
		return nil
	}
	return ps[0]
}

// AllViolated enumerates every negative-GBA-slack path of every endpoint,
// capped at capPerEndpoint per endpoint (a safety valve: reconvergent
// designs have exponentially many paths). Endpoints are enumerated with
// the analysis' Parallelism setting; the result is endpoint-major in FF
// order, identical at every setting.
func (a *Analyzer) AllViolated(capPerEndpoint int) []*Path {
	zero := 0.0
	per := a.KWorstAll(a.EndpointIndices(), capPerEndpoint, &zero, a.R.Cfg.Parallelism)
	var out []*Path
	for _, ps := range per {
		out = append(out, ps...)
	}
	return out
}

// MaxFloat is a convenience for stopAtSlack pointers.
func MaxFloat() *float64 {
	v := math.MaxFloat64
	return &v
}
