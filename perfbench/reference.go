package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// The host this benchmark runs on may change speed by half or more over
// minutes, as other tenants load it, and every timed operation slows
// with it. The gated timings of the short-operation workloads are
// therefore normalized: each run times a fixed reference computation,
// interleaved with its operations, and scales its wall times by
// refNominal / (the run's median reference time). On a host running the reference at nominal speed the normalized
// times equal the wall times; the raw wall times are reported beside
// them. The reference is part of the benchmark, not of the program, so a
// change to the program cannot move it.

// refNominal is the reference's median wall time on an unloaded 2-vCPU
// VM, the host the bounds were set on.
const refNominal = 7500 * time.Microsecond

// refNodes sizes the reference: a few megabytes of arrays, beyond the
// caches the way a timing graph is.
const refNodes = 60_000

// reference holds the reference computation's buffers, allocated once so
// that a probe allocates nothing and never triggers a collection.
type reference struct {
	off   []int32 // CSR offsets of a random DAG
	adj   []int32
	arr   []float64
	keys  []float64
	table []float64
	sink  float64
}

func newReference() *reference {
	return &reference{
		off:   make([]int32, refNodes+1),
		adj:   make([]int32, 0, 3*refNodes),
		arr:   make([]float64, refNodes),
		keys:  make([]float64, refNodes),
		table: make([]float64, 1<<14),
	}
}

// probe collects the garbage the last operation left (untimed), then
// times one reference computation: build a random DAG in CSR form, relax
// it in topological order, sort the result and scatter it into a table —
// the mix of random access, float work and sorting timing analysis does.
func (rf *reference) probe() float64 {
	runtime.GC()
	t0 := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	rf.adj = rf.adj[:0]
	rf.off[0], rf.off[1] = 0, 0
	for i := 1; i < refNodes; i++ {
		fanin := 1 + int(next()%3)
		for j := 0; j < fanin; j++ {
			rf.adj = append(rf.adj, int32(next()%uint64(i)))
		}
		rf.off[i+1] = int32(len(rf.adj))
	}
	rf.arr[0] = 0
	for i := 1; i < refNodes; i++ {
		m := 0.0
		for _, p := range rf.adj[rf.off[i]:rf.off[i+1]] {
			m = math.Max(m, rf.arr[p]+1.5)
		}
		rf.arr[i] = m * 1.0000001
	}
	for i, v := range rf.arr {
		rf.keys[i] = v + float64(next()%1000)*1e-3
	}
	slices.Sort(rf.keys)
	clear(rf.table)
	for i := 0; i < refNodes; i += 2 {
		rf.table[next()%uint64(len(rf.table))] += rf.keys[i]
	}
	for _, v := range rf.table {
		rf.sink += v
	}
	return time.Since(t0).Seconds()
}

// refScale returns the factor that converts a run's wall times to
// nominal-speed times: refNominal over the median of its probes.
func refScale(probes []float64) float64 {
	return ratio(refNominal.Seconds(), median(probes))
}

// refStartProbes is how many probes open an untraced phase, so that even
// a phase of one long operation has a median to go on.
const refStartProbes = 3
