package pba_test

import (
	"container/heap"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// perPinState and perPinHeap are the search state and heap of the per-edge
// k-worst search, kept verbatim as the oracle for the multiplicity search.
type perPinState struct {
	inst   int
	tail   float64
	parent *perPinState
	bound  float64
}

type perPinHeap []*perPinState

func (h perPinHeap) Len() int           { return len(h) }
func (h perPinHeap) Less(i, j int) bool { return h[i].bound > h[j].bound }
func (h perPinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *perPinHeap) Push(x any)        { *h = append(*h, x.(*perPinState)) }
func (h *perPinHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// perPinKWorst is the k-worst search that expands every fanin edge, so a
// gate with several input pins on one net spawns one state per pin.
func perPinKWorst(a *pba.Analyzer, captureIdx, k int, stopAtSlack *float64) []*pba.Path {
	r := a.R
	d := r.G.D
	ffID := d.FFs[captureIdx]
	budget := a.Budget(captureIdx)

	h := &perPinHeap{}
	for _, e := range r.G.Fanin(ffID) {
		s := &perPinState{inst: int(e.From), tail: r.WireDelay[e.From]}
		s.bound = r.ArrivalOut[e.From] + s.tail
		heap.Push(h, s)
	}
	gbaCredit := r.GBACRPR[captureIdx]
	var out []*pba.Path
	for h.Len() > 0 && len(out) < k {
		s := heap.Pop(h).(*perPinState)
		if d.Instances[s.inst].IsFF() {
			arrival := s.bound
			slack := budget + gbaCredit - arrival
			if stopAtSlack != nil && slack >= *stopAtSlack {
				break
			}
			cells := []int{s.inst}
			for st := s.parent; st != nil; st = st.parent {
				cells = append(cells, st.inst)
			}
			out = append(out, &pba.Path{
				Launch: s.inst, Capture: ffID, Cells: cells,
				GBAArrival: arrival, GBASlack: slack,
			})
			continue
		}
		for _, e := range r.G.Fanin(s.inst) {
			ns := &perPinState{
				inst:   int(e.From),
				tail:   s.tail + r.CellDelay[s.inst] + r.WireDelay[e.From],
				parent: s,
			}
			ns.bound = r.ArrivalOut[e.From] + ns.tail
			heap.Push(h, ns)
		}
	}
	return out
}

// requireSameGroups compares per-endpoint path groups bit for bit,
// including the Float64bits of arrival and slack.
func requireSameGroups(t *testing.T, want, got [][]*pba.Path, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d endpoint groups vs %d", label, len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: endpoint group %d has %d paths, oracle %d", label, i, len(got[i]), len(want[i]))
		}
		for j, p := range want[i] {
			q := got[i][j]
			if p.Launch != q.Launch || p.Capture != q.Capture ||
				math.Float64bits(p.GBAArrival) != math.Float64bits(q.GBAArrival) ||
				math.Float64bits(p.GBASlack) != math.Float64bits(q.GBASlack) ||
				!slices.Equal(p.Cells, q.Cells) {
				t.Fatalf("%s: endpoint group %d path %d differs: oracle %+v, got %+v", label, i, j, p, q)
			}
		}
	}
}

type oracleCase struct {
	k    int
	stop *float64
}

func (c oracleCase) String() string {
	if c.stop == nil {
		return fmt.Sprintf("k=%d/stop=nil", c.k)
	}
	return fmt.Sprintf("k=%d/stop=%g", c.k, *c.stop)
}

func requireMatchesPerPin(t *testing.T, d *netlist.Design, cases []oracleCase) {
	t.Helper()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	a := pba.NewAnalyzer(sta.Analyze(g, sta.DefaultConfig()))
	eps := a.EndpointIndices()
	for _, c := range cases {
		want := make([][]*pba.Path, len(eps))
		for i, fi := range eps {
			want[i] = perPinKWorst(a, fi, c.k, c.stop)
		}
		for _, par := range []int{1, 4} {
			got := a.KWorstAll(eps, c.k, c.stop, par)
			requireSameGroups(t, want, got, fmt.Sprintf("%s %v parallelism %d", d.Name, c, par))
		}
	}
}

// TestKWorstMatchesPerPinExpansion pins the multiplicity search to the
// per-edge search it replaced: same paths, same order, same float bits, on
// every suite design and closure fixture, at Parallelism 1 and 4.
func TestKWorstMatchesPerPinExpansion(t *testing.T) {
	zero := 0.0
	cases := []oracleCase{{10, nil}, {20, &zero}, {2000, &zero}}
	var designs []func() (*netlist.Design, error)
	for _, cfg := range append(gen.Suite(), gen.Toy()) {
		designs = append(designs, func() (*netlist.Design, error) { return gen.Generate(cfg) })
	}
	designs = append(designs,
		fixtures.BufferCase,
		func() (*netlist.Design, error) { return fixtures.RetimePipeline(4) },
		func() (*netlist.Design, error) {
			d, _, err := fixtures.PinParallelChain(10, 5, 28, 1000)
			return d, err
		},
	)
	for _, build := range designs {
		d, err := build()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(d.Name, func(t *testing.T) { requireMatchesPerPin(t, d, cases) })
	}
}

// TestKWorstMatchesPerPinExpansionLarge runs the oracle on the 100k scale
// design, where 29,624 gates read one net on two pins (four edges each) and
// the per-edge search walks their plateaus for tens of seconds; gated
// behind MGBA_SCALE=1.
func TestKWorstMatchesPerPinExpansionLarge(t *testing.T) {
	if os.Getenv("MGBA_SCALE") == "" {
		t.Skip("set MGBA_SCALE=1 to run the 100k per-pin oracle")
	}
	d, err := gen.Generate(gen.Large(100_000))
	if err != nil {
		t.Fatal(err)
	}
	zero := 0.0
	requireMatchesPerPin(t, d, []oracleCase{{20, &zero}, {10, nil}})
}

// TestKWorstPinParallelPlateau: a chain of n gates, each reading the
// previous net on both input pins, has c^n per-edge copies of its one path,
// where c is a gate's fanin edge count from that driver. The search must
// return exactly min(k, c^n) equal copies while expanding each gate once,
// not the c^n-state plateau the per-edge search walks.
func TestKWorstPinParallelPlateau(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	expanded := obs.NewCounter("pba.states.expanded")
	copies := obs.NewCounter("pba.paths.pin_parallel")

	for _, tc := range []struct{ n, k int }{{40, 20}, {3, 20}, {3, 2000}} {
		d, gates, err := fixtures.PinParallelChain(tc.n, 5, 28, 1000)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		a := pba.NewAnalyzer(sta.Analyze(g, sta.DefaultConfig()))
		capture := d.Nets[d.Instances[gates[tc.n-1]].Output].Sinks[0]
		fi := g.FFIndex(capture)

		// graph.Build emits one edge per (sink entry, pin) pair, so two
		// pins on one net give c = 4 edges, all from the same driver.
		c := len(g.Fanin(gates[0]))
		if c < 2 {
			t.Fatalf("fixture gate has %d fanin edges; want pin-parallel", c)
		}
		want := tc.k
		if perEdge := math.Pow(float64(c), float64(tc.n)); perEdge < float64(want) {
			want = int(perEdge)
			requireSameGroups(t, [][]*pba.Path{perPinKWorst(a, fi, tc.k, nil)},
				[][]*pba.Path{a.KWorst(fi, tc.k, nil)}, d.Name)
		}

		e0, c0 := expanded.Value(), copies.Value()
		ps := a.KWorst(fi, tc.k, nil)
		if len(ps) != want {
			t.Fatalf("n=%d k=%d: %d paths, want %d", tc.n, tc.k, len(ps), want)
		}
		for i, p := range ps {
			if p.NumGates() != tc.n || p.Capture != capture ||
				!slices.Equal(p.Cells, ps[0].Cells) ||
				math.Float64bits(p.GBAArrival) != math.Float64bits(ps[0].GBAArrival) {
				t.Fatalf("n=%d: path %d is not a copy of path 0: %+v vs %+v", tc.n, i, p, ps[0])
			}
			if i > 0 && &p.Cells[0] == &ps[0].Cells[0] {
				t.Fatalf("n=%d: path %d shares its Cells with path 0", tc.n, i)
			}
		}
		if got := expanded.Value() - e0; got != int64(tc.n) {
			t.Errorf("n=%d: expanded %d states, want %d (one per gate)", tc.n, got, tc.n)
		}
		if got := copies.Value() - c0; got != int64(want-1) {
			t.Errorf("n=%d: %d pin-parallel copies counted, want %d", tc.n, got, want-1)
		}
	}
}
