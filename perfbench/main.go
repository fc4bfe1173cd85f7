// Command perfbench is the end-to-end benchmark of the mGBA system: one
// binary that runs each workload, checks its outputs against references
// the code under test does not produce, and prints its metrics.
//
//	go run . --workload closure-d3 --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with the obs layer off; with --trace 1
// they are the per-layer ones, read from obs in a traced half of the
// window after an untraced half that prices the tracing overhead.
// Everything else (run metadata, the named workload metrics with their
// sample counts, every check) goes to the lines before it and to
// .bench_build/results/ under the working directory, which must be the
// repository root. README.md in this directory documents the workloads
// and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mgba/internal/obs"
)

// defaultSeed is the workload seed that reproduces every preset exactly:
// it is the solver seed core.DefaultOptions uses.
const defaultSeed = 1

// workloads lists the benchmark's workloads in run order.
var workloads = []struct {
	name string
	run  func(*env) (*result, error)
}{
	{"closure-d3", runClosureD3},
	{"calibrate-d10", runCalibrateD10},
	{"mcmm-d10", runMCMMD10},
	{"scale-100k", runScale100k},
	{"calibd-d3", runCalibdD3},
}

func main() {
	workload := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 12, "measurement window per workload, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := run(names, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// checkRoot verifies that the working directory is the repository root,
// whose module the benchmark measures.
func checkRoot() error {
	blob, err := os.ReadFile("go.mod")
	if err != nil || !strings.HasPrefix(string(blob), "module mgba\n") {
		return fmt.Errorf("run from the repository root (no mgba go.mod in the working directory)")
	}
	return nil
}

func run(names []string, seed int64, seconds float64, trace bool) error {
	meta := collectMeta(seed, trace)
	fmt.Printf("perfbench: seed=%d trace=%v seconds=%g gomaxprocs=%d numcpu=%d %s rev=%s source=%s\n",
		seed, trace, seconds, meta.GOMAXPROCS, meta.NumCPU, meta.GoVersion, meta.GitRev, meta.SourceDigest[:12])
	var all []*result
	for _, name := range names {
		for _, w := range workloads {
			if w.name != name {
				continue
			}
			e, err := newEnv(name, seed, seconds, trace)
			if err != nil {
				return err
			}
			r, err := w.run(e)
			e.close()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			r.workload = name
			r.meta = meta
			r.compareWithEarlierRuns()
			r.print(trace)
			if err := r.save(trace); err != nil {
				return err
			}
			all = append(all, r)
		}
	}
	return printSummary(all, trace)
}

// printSummary writes the final JSON line. A single workload reports its
// metrics by their plain names; "all" prefixes each with its workload.
func printSummary(all []*result, trace bool) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range all {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		ms := r.endToEnd
		if trace {
			ms = r.layerList()
		}
		for _, m := range ms {
			key := m.Name
			if len(all) > 1 {
				key = r.workload + "/" + m.Name
			}
			out.Metrics[key] = m
		}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// env is one workload run's context: its seed, its measurement window
// and a scratch directory under .bench_build for files it writes.
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64
	trace   bool
	tmp     string
}

func newEnv(name string, seed int64, seconds float64, trace bool) (*env, error) {
	if obs.Enabled() {
		return nil, fmt.Errorf("obs is enabled before the run starts")
	}
	runtime.GC() // start from the same heap, whatever ran before

	tmp := filepath.Join(".bench_build", "tmp", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	return &env{ctx: context.Background(), seed: seed, seconds: seconds, trace: trace, tmp: tmp}, nil
}

func (e *env) close() { _ = os.RemoveAll(e.tmp) } // scratch only; a leftover is harmless

// opSeed is the calibration solver's RNG seed (core.Options.Seed) for the
// i-th operation of a run. Operation 0 runs at the workload seed itself,
// so the default seed reproduces the presets; later operations of an
// untraced run draw fresh solver streams, so its median spans many fits
// instead of hanging on one. A traced run stays at the workload seed, so
// its per-layer counts repeat exactly and both of its halves do the same
// work.
func (e *env) opSeed(i int) uint64 {
	if e.trace {
		i = 0
	}
	return uint64(e.seed) + uint64(i)*0x9e3779b97f4a7c15
}

// windows splits the measurement window: all of it untraced, or half
// untraced (which prices the tracing overhead) and half traced.
func (e *env) windows() (timed, traced time.Duration) {
	total := time.Duration(e.seconds * float64(time.Second))
	if !e.trace {
		return total, 0
	}
	return total / 2, total / 2
}

// metric is one reported number. N is the sample count behind a median
// (0 for values that are not medians); it is printed, not part of the
// final JSON line.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is one workload run: operation counts, checks and three metric
// sets — the gated end-to-end metrics, the workload's named metrics
// (documented in README.md) and the per-layer metrics of a traced run.
type result struct {
	workload          string
	meta              meta
	attempted, failed int
	checks            []check
	endToEnd          []metric
	named             []metric
	layers            map[string]float64
	info              map[string]any
	// outputs are the run's deterministic outputs (QoR, weight hashes):
	// another run of the same code at the same seed must reproduce them.
	outputs map[string]string
}

func newResult() *result {
	return &result{layers: map[string]float64{}, info: map[string]any{}, outputs: map[string]string{}}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

func (r *result) addNamed(name string, v float64, unit string, n int) {
	r.named = append(r.named, metric{Name: name, Value: v, Unit: unit, N: n})
}

// setLayer records a per-layer metric; the name must be in layerSpecs.
func (r *result) setLayer(name string, v float64) {
	if _, ok := layerUnit[name]; !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	r.layers[name] = v
}

// layerList returns every per-layer metric in layerSpecs order; a layer
// the workload does not exercise reads 0.
func (r *result) layerList() []metric {
	out := make([]metric, len(layerSpecs))
	for i, sp := range layerSpecs {
		out[i] = metric{Name: sp.name, Value: r.layers[sp.name], Unit: sp.unit}
	}
	return out
}

func (r *result) print(trace bool) {
	fmt.Printf("== %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	show := func(title string, ms []metric) {
		fmt.Printf("  %s:\n", title)
		for _, m := range ms {
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("  (n=%d)", m.N)
			}
			fmt.Printf("    %-32s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, n)
		}
	}
	if trace {
		show("per-layer metrics (traced half of the window)", r.layerList())
	} else {
		show("end-to-end metrics", r.endToEnd)
		show("workload metrics", r.named)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("  check %-28s %s  %s\n", c.Name, status, c.Detail)
	}
}

// save writes the run's full record under .bench_build/results.
func (r *result) save(trace bool) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type named struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"samples,omitempty"`
	}
	toMap := func(ms []metric) map[string]named {
		out := make(map[string]named, len(ms))
		for _, m := range ms {
			out[m.Name] = named{m.Value, m.Unit, m.N}
		}
		return out
	}
	t := 0
	if trace {
		t = 1
	}
	rec := map[string]any{
		"workload":  r.workload,
		"meta":      r.meta,
		"outputs":   r.outputs,
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"checks":    r.checks,
		"info":      r.info,
	}
	if trace {
		rec["per_layer"] = toMap(r.layerList())
	} else {
		rec["end_to_end"] = toMap(r.endToEnd)
		rec["workload_metrics"] = toMap(r.named)
	}
	blob, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.resultPath(t), append(blob, '\n'), 0o644)
}

func (r *result) resultPath(trace int) string {
	return filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.meta.Seed, trace))
}

// compareWithEarlierRuns checks the run's deterministic outputs against
// the recorded results of earlier runs of the same source at the same
// seed, traced or not, when there are any.
func (r *result) compareWithEarlierRuns() {
	compared := 0
	for t := 0; t <= 1; t++ {
		blob, err := os.ReadFile(r.resultPath(t))
		if err != nil {
			continue // no earlier run recorded
		}
		var prev struct {
			Meta    meta              `json:"meta"`
			Outputs map[string]string `json:"outputs"`
		}
		if json.Unmarshal(blob, &prev) != nil || prev.Meta.SourceDigest != r.meta.SourceDigest {
			continue
		}
		for k, v := range r.outputs {
			if pv, ok := prev.Outputs[k]; ok {
				compared++
				if pv != v {
					r.check("deterministic_across_runs", false, "%s: %s now, %s in an earlier run", k, v, pv)
					return
				}
			}
		}
	}
	r.check("deterministic_across_runs", true, "%d outputs matched earlier runs of this source at this seed", compared)
}
