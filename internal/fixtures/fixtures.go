// Package fixtures builds small hand-crafted designs used by unit tests
// and by the worked examples — most importantly the circuit of the paper's
// Fig. 1/Fig. 2, engineered so that GBA assigns the six main-path gates the
// exact worst cell depths behind Eq. (3): 5, 5, 5, 3, 4, 4.
package fixtures

import (
	"fmt"

	"mgba/internal/aocv"
	"mgba/internal/cells"
	"mgba/internal/netlist"
	"mgba/internal/sta"
)

// Fig2Info names the interesting instances of the Fig. 2 fixture.
type Fig2Info struct {
	FF1, FF2, FF3, FF4 int    // instance IDs of the four flip-flops
	Gates              [6]int // g1..g6, the FF1 -> FF4 main path, in order
	K, H               int    // side-branch gate (to FF3) and join gate (from FF2)
}

// Fig2 builds the worked example of the paper's §2.2:
//
//	FF1 -> g1 -> g2 -> g3 -> g4 -> g5 -> g6 -> FF4.D   (6-gate main path)
//	                    g4 -> k  -> FF3.D               (5-gate path via g1..g4,k)
//	FF2 -> h  -> g4                                     (short join)
//
// With the paper's Table 1 as the late derate table, every gate at exactly
// 100 ps, an ideal clock and zero wire delay, GBA prices the main path at
// 740 ps (Eq. 3) while PBA prices it at 690 ps (Eq. 2).
//
// The GBA worst depths along g1..g6 are 5,5,5,3,4,4 — the derates
// 1.20, 1.20, 1.20, 1.30, 1.25, 1.25 of Eq. (3).
func Fig2() (*netlist.Design, *Fig2Info, sta.Config, error) {
	lib := cells.Default(28)
	derates := &aocv.Set{Late: aocv.PaperTable1(), Early: aocv.Default(28).Early}
	d := netlist.New("fig2", 28, lib, derates, 1000)

	clk := d.AddNet()
	if err := d.SetClockRoot(clk); err != nil {
		return nil, nil, sta.Config{}, err
	}
	ffc, err := lib.Pick(cells.DFF, 1)
	if err != nil {
		return nil, nil, sta.Config{}, err
	}
	inv, err := lib.Pick(cells.Inv, 1)
	if err != nil {
		return nil, nil, sta.Config{}, err
	}
	nand, err := lib.Pick(cells.Nand2, 1)
	if err != nil {
		return nil, nil, sta.Config{}, err
	}

	// Nets. The FF D pins of the launch registers are fed back from the
	// capture registers' Q pins so every net is driven.
	q1, q2 := d.AddNet(), d.AddNet()
	n1, n2, n3, n4, n5, n6 := d.AddNet(), d.AddNet(), d.AddNet(), d.AddNet(), d.AddNet(), d.AddNet()
	nk, nh := d.AddNet(), d.AddNet()
	q3, q4 := d.AddNet(), d.AddNet()

	info := &Fig2Info{}
	// Launch registers at the left edge, captures 0.5 um to the right so
	// every endpoint pair sits on the 500 nm row of Table 1.
	ff1, err := d.AddFF(ffc, 0, 0, q4, q1, clk)
	if err != nil {
		return nil, nil, sta.Config{}, err
	}
	ff2, err := d.AddFF(ffc, 0, 0, q3, q2, clk)
	if err != nil {
		return nil, nil, sta.Config{}, err
	}
	info.FF1, info.FF2 = ff1.ID, ff2.ID

	add := func(cell *cells.Cell, ins []int, out int) int {
		in, err2 := d.AddGate(cell, 0.25, 0, ins, out)
		if err2 != nil {
			err = err2
			return -1
		}
		return in.ID
	}
	info.Gates[0] = add(inv, []int{q1}, n1)
	info.Gates[1] = add(inv, []int{n1}, n2)
	info.Gates[2] = add(inv, []int{n2}, n3)
	info.Gates[3] = add(nand, []int{n3, nh}, n4)
	info.Gates[4] = add(inv, []int{n4}, n5)
	info.Gates[5] = add(inv, []int{n5}, n6)
	info.K = add(inv, []int{n4}, nk)
	info.H = add(inv, []int{q2}, nh)
	if err != nil {
		return nil, nil, sta.Config{}, err
	}

	ff3, err := d.AddFF(ffc, 0.5, 0, nk, q3, clk)
	if err != nil {
		return nil, nil, sta.Config{}, err
	}
	ff4, err := d.AddFF(ffc, 0.5, 0, n6, q4, clk)
	if err != nil {
		return nil, nil, sta.Config{}, err
	}
	info.FF3, info.FF4 = ff3.ID, ff4.ID

	if err := d.Validate(); err != nil {
		return nil, nil, sta.Config{}, fmt.Errorf("fixtures: fig2 invalid: %w", err)
	}

	// Every delay element is exactly 100 ps except the FF arcs (0 ps), the
	// clock is ideal, and wires carry no delay (the default).
	override := make(map[int]float64, len(d.Instances))
	for _, in := range d.Instances {
		if in.IsFF() {
			override[in.ID] = 0
		} else {
			override[in.ID] = 100
		}
	}
	cfg := sta.Config{
		DerateData:    true,
		IdealClock:    true,
		DelayOverride: override,
	}
	return d, info, cfg, nil
}

// Chain builds a linear register-to-register pipeline with n inverters
// between two flip-flops, placed along the x axis with the given pitch in
// micrometres. It returns the design and the inverter instance IDs.
func Chain(n int, pitch float64, node int, period float64) (*netlist.Design, []int, error) {
	return chain(fmt.Sprintf("chain%d", n), cells.Inv, n, pitch, node, period)
}

// PinParallelChain builds the Chain pipeline from NAND2 gates whose two
// input pins both read the previous stage's net. Every gate has two
// pin-parallel fanin edges from one driver, so the single launch-to-capture
// path has 2^n per-pin copies: the plateau a k-worst search must not walk
// edge by edge. It returns the design and the gate instance IDs.
func PinParallelChain(n int, pitch float64, node int, period float64) (*netlist.Design, []int, error) {
	return chain(fmt.Sprintf("ppchain%d", n), cells.Nand2, n, pitch, node, period)
}

func chain(name string, kind cells.Kind, n int, pitch float64, node int, period float64) (*netlist.Design, []int, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("fixtures: chain needs n >= 1")
	}
	lib := cells.Default(node)
	d := netlist.New(name, node, lib, aocv.Default(node), period)
	clk := d.AddNet()
	if err := d.SetClockRoot(clk); err != nil {
		return nil, nil, err
	}
	ffc, err := lib.Pick(cells.DFF, 1)
	if err != nil {
		return nil, nil, err
	}
	gate, err := lib.Pick(kind, 1)
	if err != nil {
		return nil, nil, err
	}
	q := d.AddNet()
	last := d.AddNet()
	if _, err := d.AddFF(ffc, 0, 0, last, q, clk); err != nil {
		return nil, nil, err
	}
	cur := q
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out := d.AddNet()
		ins := make([]int, kind.Inputs())
		for p := range ins {
			ins[p] = cur // every pin on the previous stage's net
		}
		g, err := d.AddGate(gate, float64(i+1)*pitch, 0, ins, out)
		if err != nil {
			return nil, nil, err
		}
		ids = append(ids, g.ID)
		cur = out
	}
	// Capture FF; its Q feeds back to the launch FF's D so all nets drive.
	if _, err := d.AddFF(ffc, float64(n+1)*pitch, 0, cur, last, clk); err != nil {
		return nil, nil, err
	}
	d.AutoWire()
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	return d, ids, nil
}
