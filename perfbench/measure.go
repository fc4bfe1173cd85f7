package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"mgba/internal/obs"
)

// meta is the run metadata recorded with every result.
type meta struct {
	Seed         int64  `json:"seed"`
	Trace        bool   `json:"trace"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"numcpu"`
	GoVersion    string `json:"go_version"`
	GitRev       string `json:"git_rev"`
	SourceDigest string `json:"source_sha256"`
	Start        string `json:"start"`
}

func collectMeta(seed int64, trace bool) meta {
	m := meta{
		Seed:         seed,
		Trace:        trace,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		GitRev:       "unknown",
		SourceDigest: sourceDigest(),
		Start:        time.Now().UTC().Format(time.RFC3339),
	}
	dirty := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		m.GitRev += "+dirty"
	}
	return m
}

// sourceDigest hashes every Go source and module file under the working
// directory (dot-directories skipped), so a result names the code it
// measured even where no git revision is available.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, _ = io.Copy(h, f) // a short read only weakens the digest
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest of p99.9, p99 and p90 that leaves at
// least ten samples beyond it, or 0 when even p90 does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}

// sample is one operation's cost: wall time and heap bytes allocated.
type sample struct {
	dt    time.Duration
	alloc float64
}

// watch brackets one operation.
type watch struct {
	t0 time.Time
	a0 float64
}

func startWatch() watch { return watch{a0: allocBytes(), t0: time.Now()} }

func (w watch) stop() sample {
	dt := time.Since(w.t0)
	return sample{dt: dt, alloc: allocBytes() - w.a0}
}

// allocBytes reads the runtime's cumulative heap allocation counter.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// phase is one measured stretch of back-to-back operations.
type phase struct {
	samples   []float64 // seconds per operation
	allocs    []float64 // heap bytes allocated per operation
	attempted int
	failed    int
	setups    []float64      // seconds per set-up repeated between operations
	refs      []float64      // seconds per reference probe (untraced phases)
	peakHeap  float64        // bytes: peak heap in use while the phase ran
	snap      map[string]any // obs snapshot at the end of a traced phase
}

// measure runs op back to back, at least once, while another operation
// (at the mean pace so far) still fits in budget.
// op returns the latency it measured (setup it does per call is not
// part of it) and whether the operation failed; an error aborts the run.
// A traced phase resets and enables obs around the loop and snapshots it
// at the end; an untraced one requires obs to stay off throughout.
// An untraced phase with a reference probes it (reference.go) at its
// start and after each operation. resetup, when set, is a set-up
// repetition timed after each operation of an untraced phase, so set-up
// time is sampled across the whole window rather than in one burst
// before it.
func measure(budget time.Duration, traced bool, op func() (sample, bool, error), resetup func() error, ref *reference) (*phase, error) {
	if obs.Enabled() {
		return nil, fmt.Errorf("obs enabled before a measured phase")
	}
	if traced {
		obs.Reset()
		obs.Enable(true)
		defer obs.Enable(false)
	}
	p := &phase{}
	if traced {
		ref = nil
	}
	if ref != nil {
		for i := 0; i < refStartProbes; i++ {
			p.refs = append(p.refs, ref.probe())
		}
	}
	hs := startHeapSampler()
	t0 := time.Now()
	for p.attempted == 0 || time.Since(t0)+time.Since(t0)/time.Duration(p.attempted) <= budget {
		smp, failed, err := op()
		if err != nil {
			hs.stop()
			return nil, err
		}
		p.attempted++
		if failed {
			p.failed++
			continue
		}
		p.samples = append(p.samples, smp.dt.Seconds())
		p.allocs = append(p.allocs, smp.alloc)
		if traced {
			continue
		}
		if resetup != nil {
			d, err := timeIt(resetup)
			if err != nil {
				hs.stop()
				return nil, err
			}
			p.setups = append(p.setups, d.Seconds())
		}
		if ref != nil {
			p.refs = append(p.refs, ref.probe())
		}
	}
	p.peakHeap = hs.stop()
	if traced {
		p.snap = obs.Snapshot()
	} else if obs.Enabled() {
		return nil, fmt.Errorf("obs was enabled during an untraced phase")
	}
	return p, nil
}

// heapSampler polls the runtime's heap-objects gauge (live objects plus
// garbage not yet swept, read without stopping the world) and keeps the
// maximum.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	hs := &heapSampler{done: make(chan struct{})}
	hs.wg.Add(1)
	go func() {
		defer hs.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := float64(sample[0].Value.Uint64()); v > hs.peak {
				hs.peak = v
			}
			select {
			case <-hs.done:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// stop ends the sampler and returns the peak it saw, in bytes.
func (hs *heapSampler) stop() float64 {
	close(hs.done)
	hs.wg.Wait()
	return hs.peak
}

// timeIt runs fn and returns its wall time.
func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// setupTimes runs setup once untimed (page faults, lazy runtime state),
// then reps times more, and returns each repetition's wall time in
// seconds; the last repetition's state is what the workload keeps.
func setupTimes(reps int, setup func() error) ([]float64, error) {
	if err := setup(); err != nil {
		return nil, err
	}
	var xs []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // each repetition starts from the same heap
		d, err := timeIt(setup)
		if err != nil {
			return nil, err
		}
		xs = append(xs, d.Seconds())
	}
	return xs, nil
}

// snapshot reads obs counters and histograms out of a traced phase.
type snapshot map[string]any

// count returns a counter or gauge value (0 when never registered).
func (s snapshot) count(name string) float64 {
	switch v := s[name].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// countPrefix sums every counter whose name starts with prefix and ends
// with suffix.
func (s snapshot) countPrefix(prefix, suffix string) float64 {
	var sum float64
	for name, v := range s {
		if c, ok := v.(int64); ok && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			sum += float64(c)
		}
	}
	return sum
}

// seconds returns a nanosecond histogram's sum in seconds.
func (s snapshot) seconds(name string) float64 {
	if h, ok := s[name].(obs.HistogramSnapshot); ok {
		return h.Sum / 1e9
	}
	return 0
}

// histCount returns a histogram's observation count.
func (s snapshot) histCount(name string) float64 {
	if h, ok := s[name].(obs.HistogramSnapshot); ok {
		return float64(h.Count)
	}
	return 0
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addCommonLayers records the per-layer metrics every workload reads
// from obs, each per operation of the traced phase: engine propagation,
// path enumeration and golden retiming, the solver, the calibrator's
// stages, the degradation ladder and the worker pool. retimeCost is the
// directly timed cost of one golden retime, in seconds.
func addCommonLayers(r *result, s snapshot, ops, retimeCost float64) {
	per := func(v float64) float64 { return ratio(v, ops) }
	r.setLayer("engine.run_s", per(s.seconds("engine.run_ns")))
	r.setLayer("engine.runs", per(s.count("engine.runs")))
	r.setLayer("engine.update_s", per(s.seconds("engine.update_ns")))
	r.setLayer("engine.updates", per(s.count("engine.updates")))
	r.setLayer("pba.paths_enumerated", per(s.count("pba.paths.enumerated")))
	r.setLayer("pba.endpoints_swept", per(s.count("pba.endpoints.swept")))
	r.setLayer("pba.retimes", per(s.count("pba.retimes")))
	r.setLayer("pba.retime_s", per(s.count("pba.retimes"))*retimeCost)
	// Solver time is the calibrator's solve stage: solver.solve_ns counts
	// the SCG runs nested inside SCG+RS twice.
	r.setLayer("solver.solve_s", per(s.seconds("span.calibrate.cold.solve_ns")+s.seconds("span.calibrate.recalibrate.solve_ns")))
	r.setLayer("solver.iters", per(s.count("solver.gd.iters")+s.count("solver.scg.iters")))
	r.setLayer("solver.solves", per(s.histCount("solver.solve_ns")))
	r.setLayer("solver.reverts", per(s.count("solver.reverts")))
	r.setLayer("core.enumerate_s", per(s.seconds("span.calibrate.cold.enumerate_ns")+
		s.seconds("span.calibrate.cold.enumerate.stream_ns")+s.seconds("span.calibrate.recalibrate.enumerate_ns")))
	r.setLayer("core.assemble_s", per(s.seconds("span.calibrate.cold.assemble_ns")+s.seconds("span.calibrate.recalibrate.assemble_ns")))
	r.setLayer("core.validate_s", per(s.seconds("span.calibrate.cold.validate_ns")+s.seconds("span.calibrate.recalibrate.validate_ns")))
	r.setLayer("core.recalibrate_s", per(s.seconds("span.calibrate.recalibrate_ns")))
	r.setLayer("core.endpoints_reenumerated", per(s.count("core.endpoints.reenumerated")))
	cold, inc := s.count("core.calibrations.cold"), s.count("core.calibrations.incremental")
	r.setLayer("core.calibrations_cold", per(cold))
	r.setLayer("core.calibrations_incremental", per(inc))
	r.setLayer("core.incremental_share", ratio(inc, cold+inc))
	r.setLayer("core.ladder_rejected", per(s.count("core.ladder.rejected")))
	r.setLayer("par.pool_submits", per(s.count("par.pool.submits")))
	r.setLayer("par.queue_full", per(s.count("par.pool.queue_full")))
}

// addTraceCost records the tracing overhead (traced minus untraced
// median latency) and the unattributed remainder: the traced mean
// latency minus the named, non-overlapping layer times per operation
// (means, so that the parts add up).
func addTraceCost(r *result, timed, traced []float64, attributed float64) {
	tm, tr := median(timed), median(traced)
	r.setLayer("trace.op_s", tr)
	r.setLayer("trace.untraced_op_s", tm)
	r.setLayer("trace.overhead_s", tr-tm)
	r.setLayer("trace.overhead_frac", ratio(tr-tm, tm))
	m := mean(traced)
	r.setLayer("unattributed_s", m-attributed)
	r.setLayer("unattributed_frac", ratio(m-attributed, m))
}

// layerSpecs is every per-layer metric, in report order, with its unit.
// Times and counts are per operation of the workload's traced phase.
var layerSpecs = []struct{ name, unit string }{
	{"engine.run_s", "s"}, {"engine.runs", "count"},
	{"engine.update_s", "s"}, {"engine.updates", "count"},
	{"graph.build_s", "s"},
	{"closure.calib_s", "s"}, {"closure.transforms_accepted", "count"},
	{"closure.transforms_rejected", "count"}, {"closure.accept_ratio", "ratio"},
	{"closure.buffer_trials_rejected", "count"}, {"closure.repair_s", "s"},
	{"netio.checkpoints", "count"}, {"netio.checkpoint_s", "s"},
	{"pba.enumerate_s", "s"}, {"pba.paths_enumerated", "count"},
	{"pba.endpoints_swept", "count"}, {"pba.retimes", "count"}, {"pba.retime_s", "s"},
	{"solver.solve_s", "s"}, {"solver.iters", "count"},
	{"solver.solves", "count"}, {"solver.reverts", "count"},
	{"core.enumerate_s", "s"}, {"core.assemble_s", "s"},
	{"core.validate_s", "s"}, {"core.recalibrate_s", "s"},
	{"core.endpoints_reenumerated", "count"}, {"core.calibrations_cold", "count"},
	{"core.calibrations_incremental", "count"}, {"core.incremental_share", "ratio"},
	{"core.ladder_rejected", "count"},
	{"serve.recalibrate_s", "s"}, {"serve.overhead_s", "s"}, {"serve.rejected", "count"},
	{"par.pool_submits", "count"}, {"par.queue_full", "count"},
	{"trace.op_s", "s"}, {"trace.untraced_op_s", "s"},
	{"trace.overhead_s", "s"}, {"trace.overhead_frac", "ratio"},
	{"unattributed_s", "s"}, {"unattributed_frac", "ratio"},
}

var layerUnit = func() map[string]string {
	m := make(map[string]string, len(layerSpecs))
	for _, sp := range layerSpecs {
		m[sp.name] = sp.unit
	}
	return m
}()
