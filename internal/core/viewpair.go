package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mgba/internal/engine"
	"mgba/internal/graph"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// A view pair names the two timing views a calibration corrects between:
// the cheap view, whose derated per-gate delays and path decomposition
// yield the A·Δx rows of Eq. (9), and the golden view, whose exact path
// slacks are the fit targets. The paper's instance is GBA (cheap)
// against PBA retiming of the same session (golden); the "preroute" pair
// runs the same machinery across design stages, correcting a pre-route
// analysis against a deterministically routed twin of the design. Pairs
// are registered by name and selected per calibration through
// Options.ViewPair.

// PathTimer produces the golden timing of one selected path.
// pba.Analyzer is the canonical implementation: an exact single-path
// replay with path-specific derates and CRPR.
type PathTimer interface {
	Retime(p *pba.Path) *pba.Timing
}

// CheapView is the inexpensive whole-graph analysis being corrected. It
// produces the baseline result the selection is enumerated on and owns
// the row decomposition that maps a selected path and its golden timing
// onto one row of the Eq. (9) system.
type CheapView interface {
	// Run performs the cheap analysis of the current design state.
	Run() *sta.Result
	// Row builds one row of the Eq. (9) system for selected path p with
	// golden timing tm, against the cheap baseline r: sparse entries
	// (idx, val), the correction target and the Eq. (5) guard.
	Row(r *sta.Result, g *graph.Graph, epsilon float64, cols map[int]int, p *pba.Path, tm *pba.Timing) (idx []int, val []float64, target, guard float64)
	// Rebind moves the view to a new timing session after a structural
	// edit (mirrors Calibrator.Rebind).
	Rebind(s *engine.Session)
}

// GoldenProvider produces golden slacks for selected paths. Refresh
// re-derives the golden view from the current design state (the start of
// every cold calibration); Update mirrors an incremental cheap-side
// change (the instance IDs whose cells changed) into it; Timer hands out
// the path replayer for the current state, given the cheap baseline the
// selection was enumerated on; Rebind follows the calibrator onto a new
// session after a structural edit.
type GoldenProvider interface {
	Refresh() error
	Update(dirty []int) error
	Timer(cheap *sta.Result) (PathTimer, error)
	Rebind(s *engine.Session) error
}

// ViewPair binds a named (cheap, golden) view combination onto a timing
// session.
type ViewPair interface {
	Name() string
	Bind(s *engine.Session, cfg sta.Config, opt Options) (CheapView, GoldenProvider, error)
}

// DefaultViewPair is the paper's GBA-corrected-against-PBA pairing, used
// whenever Options.ViewPair is empty.
const DefaultViewPair = "gba-pba"

var (
	pairMu  sync.RWMutex
	pairReg = map[string]ViewPair{}
)

// RegisterViewPair adds a pair to the registry. Registration is an
// init-time affair; a duplicate name panics.
func RegisterViewPair(p ViewPair) {
	pairMu.Lock()
	defer pairMu.Unlock()
	if _, dup := pairReg[p.Name()]; dup {
		panic("core: duplicate view pair " + p.Name())
	}
	pairReg[p.Name()] = p
}

// LookupViewPair resolves a pair name; "" selects DefaultViewPair. The
// error lists the registered names, so API layers can surface the valid
// choices verbatim.
func LookupViewPair(name string) (ViewPair, error) {
	if name == "" {
		name = DefaultViewPair
	}
	pairMu.RLock()
	defer pairMu.RUnlock()
	p, ok := pairReg[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown view pair %q (registered: %s)",
			name, strings.Join(pairNamesLocked(), ", "))
	}
	return p, nil
}

// ViewPairNames lists the registered pair names, sorted.
func ViewPairNames() []string {
	pairMu.RLock()
	defer pairMu.RUnlock()
	return pairNamesLocked()
}

func pairNamesLocked() []string {
	names := make([]string, 0, len(pairReg))
	for n := range pairReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sessionView is the cheap view shared by the registered pairs: the
// plain (unweighted) analysis of the bound session under the calibration
// config, with the paper's Eq. (9) row decomposition.
type sessionView struct {
	sess *engine.Session
	cfg  sta.Config
}

func (v *sessionView) Run() *sta.Result { return v.sess.Run(v.cfg) }

func (v *sessionView) Row(r *sta.Result, g *graph.Graph, epsilon float64, cols map[int]int, p *pba.Path, tm *pba.Timing) ([]int, []float64, float64, float64) {
	return pathRow(r, g, epsilon, cols, p, tm)
}

func (v *sessionView) Rebind(s *engine.Session) { v.sess = s }

// gbaPBAPair is the paper's pairing: derated graph-based analysis as the
// cheap view, exact path-based retiming of the same session as golden.
type gbaPBAPair struct{}

func (gbaPBAPair) Name() string { return DefaultViewPair }

func (gbaPBAPair) Bind(s *engine.Session, cfg sta.Config, opt Options) (CheapView, GoldenProvider, error) {
	return &sessionView{sess: s, cfg: cfg}, pbaProvider{}, nil
}

// pbaProvider replays selected paths with pba.Analyzer against the cheap
// baseline itself — same session, same stage — so Refresh and Update
// have nothing to mirror: the cheap baseline the calibrator maintains is
// the golden view's substrate.
type pbaProvider struct{}

func (pbaProvider) Refresh() error               { return nil }
func (pbaProvider) Update([]int) error           { return nil }
func (pbaProvider) Rebind(*engine.Session) error { return nil }

func (pbaProvider) Timer(cheap *sta.Result) (PathTimer, error) {
	return pba.NewAnalyzer(cheap), nil
}

func init() {
	RegisterViewPair(gbaPBAPair{})
	RegisterViewPair(preroutePair{})
}
