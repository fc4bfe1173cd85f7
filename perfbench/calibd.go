package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netio"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/rng"
	"mgba/internal/serve"
)

// calibdClients is the closed loop's client count; each owns one session.
const calibdClients = 2

// calibdCheckEvery is the batch cadence of the cold-reference checks
// (the last batch of each client is always checked too).
const calibdCheckEvery = 500

// slacksReply is the part of GET /v1/sessions/{id}/slacks the checks read.
type slacksReply struct {
	Slacks  []float64 `json:"slacks_ps"`
	Weights []float64 `json:"weights"`
}

// sizingOp is one accepted single-op batch, in the order it was applied.
type sizingOp struct {
	upsize  bool
	gate    int
	applied bool
}

// checkPoint pins a session state for the cold reference: the first n
// accepted batches, the slacks read before the n-th (whose weights seed
// the reference's solve) and the slacks read after it.
type checkPoint struct {
	n             int
	before, after []byte
}

// calibdClient is one closed-loop client and everything it observed.
type calibdClient struct {
	id      string
	rand    *rng.Rand
	http    *http.Client
	base    string
	gates   []int
	ops     []sizingOp
	lastRaw []byte // the latest slacks reply
	first   []byte // the slacks reply after the first accepted batch
	prevRaw []byte // the slacks reply read before the latest accepted batch
	points  []checkPoint

	attempted, failed int
	rejected          int // 429/503 answers (retried)
	degraded          int // accepted batches whose fit came from a safer solver
	batchLat, readLat []float64
	failures          []string
}

// runCalibdD3 drives an in-process calibd (memory-only sessions) on
// loopback with two closed-loop clients, each alternating a single-op
// upsize/downsize batch with a slacks read on its own D3 session.
func runCalibdD3(e *env) (*result, error) {
	r := newResult()
	cfg := gen.Suite()[2]
	scfg := serve.DefaultConfig()
	scfg.SnapshotDir = "" // memory-only: the workload measures serving, not the disk
	sv, err := serve.New(scfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(sv)
	tr := &http.Transport{MaxIdleConnsPerHost: calibdClients}
	hc := &http.Client{Timeout: time.Minute, Transport: tr}
	defer func() {
		tr.CloseIdleConnections()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sv.Shutdown(ctx) // memory-only sessions: nothing to flush
	}()

	// Set-up: generate the design, serialize it and create a session (its
	// cold calibration included). Three rounds of both clients' sessions
	// run before the window and three after it, so set-up time is sampled
	// on both sides of the run; only the last round before the window
	// keeps its sessions.
	var designJSON []byte
	var setupS, buildS []float64
	createRound := func(round int) ([]string, error) {
		var ids []string
		for c := 0; c < calibdClients; c++ {
			id := fmt.Sprintf("r%d-c%d", round, c)
			dt, err := timeIt(func() error {
				d, err := gen.Generate(cfg)
				if err != nil {
					return err
				}
				var buf bytes.Buffer
				if err := netio.Save(&buf, d); err != nil {
					return err
				}
				designJSON = buf.Bytes()
				return createSession(hc, ts.URL, id, designJSON)
			})
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, dt.Seconds())
			ids = append(ids, id)
		}
		return ids, nil
	}
	deleteRound := func(ids []string) error {
		for _, id := range ids {
			if err := deleteSession(hc, ts.URL, id); err != nil {
				return err
			}
		}
		return nil
	}
	var ids []string
	for round := 0; round < 3; round++ {
		if err := deleteRound(ids); err != nil {
			return nil, err
		}
		if ids, err = createRound(round); err != nil {
			return nil, err
		}
	}
	base, err := netio.Load(bytes.NewReader(designJSON))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ {
		dt, err := timeIt(func() error { _, err := graph.Build(base); return err })
		if err != nil {
			return nil, err
		}
		buildS = append(buildS, dt.Seconds())
	}
	gates, err := sizableGates(base)
	if err != nil {
		return nil, err
	}

	clients := make([]*calibdClient, calibdClients)
	for c := range clients {
		cl := &calibdClient{
			id:    ids[c],
			rand:  rng.New(uint64(e.seed)*1_000_003 + uint64(c)),
			http:  hc,
			base:  ts.URL,
			gates: gates,
		}
		if cl.lastRaw, err = cl.readSlacks(); err != nil {
			return nil, fmt.Errorf("initial read: %w", err)
		}
		clients[c] = cl
	}

	timedW, tracedW := e.windows()
	timed, err := calibdPhase(clients, timedW, false)
	if err != nil {
		return nil, err
	}
	var traced *calibdTotals
	if e.trace {
		if traced, err = calibdPhase(clients, tracedW, true); err != nil {
			return nil, err
		}
	}
	for _, cl := range clients {
		cl.pin() // the final state is always checked
	}
	for round := 3; round < 6; round++ {
		more, err := createRound(round)
		if err != nil {
			return nil, err
		}
		if err := deleteRound(more); err != nil {
			return nil, err
		}
	}

	// The incremental == cold contract: every pinned state must equal a
	// local cold calibration of the same design, seeded with the weights
	// the session held before the pinned batch.
	checked, mismatched := 0, 0
	var detail string
	for _, cl := range clients {
		r.attempted += cl.attempted
		r.failed += cl.failed
		for _, f := range cl.failures {
			r.check("calibd_request", false, "%s: %s", cl.id, f)
		}
		for _, p := range cl.points {
			ok, why, err := coldReference(e.ctx, designJSON, cl.ops[:p.n], p, scfg)
			if err != nil {
				return nil, err
			}
			checked++
			if !ok {
				mismatched++
				detail = fmt.Sprintf("; %s after %d batches: %s", cl.id, p.n, why)
			}
		}
	}
	r.check("incremental_equals_cold", checked > 0 && mismatched == 0,
		"%d of %d pinned session states equal a local cold core.Calibrate%s", checked-mismatched, checked, detail)
	r.check("no_failed_requests", r.failed == 0, "%d of %d requests failed", r.failed, r.attempted)

	batchP50 := median(timed.batchLat)
	p := tailPercentile(len(timed.batchLat))
	k := refScale(timed.refs)
	r.addNamed("setup_wall_s", median(setupS), "s", len(setupS))
	r.addNamed("reference_ms", median(timed.refs)*1e3, "ms", len(timed.refs))
	r.endToEnd = []metric{
		{Name: "setup_s", Value: median(setupS) * k, Unit: "s", N: len(setupS)},
		{Name: "op_p50_ms", Value: batchP50 * k * 1e3, Unit: "ms", N: len(timed.batchLat)},
		// Server and clients share the process, so allocation is charged
		// per batch as a whole: the batch, its read and both sides' JSON.
		{Name: "alloc_mb_per_op", Value: timed.alloc / float64(len(timed.batchLat)) / 1e6, Unit: "MB"},
	}
	r.addNamed("batch_p50_ms", batchP50*1e3, "ms", len(timed.batchLat))
	r.addNamed("batch_p99_ms", quantile(timed.batchLat, 0.99)*1e3, "ms", len(timed.batchLat))
	if p > 99 {
		r.addNamed(fmt.Sprintf("batch_p%g_ms", p), quantile(timed.batchLat, p/100)*1e3, "ms", len(timed.batchLat))
	}
	r.check("p99_has_tail", p >= 99, "%d batches, %.0f beyond p99 (at least 10 needed)",
		len(timed.batchLat), float64(len(timed.batchLat))/100)
	r.addNamed("read_p50_ms", median(timed.readLat)*1e3, "ms", len(timed.readLat))
	r.addNamed("requests_per_s", float64(timed.requests)/timed.wall.Seconds(), "1/s", 0)
	r.addNamed("peak_heap_mb", timed.peakHeap/1e6, "MB", 0)
	r.addNamed("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", 0)
	degraded, batches := 0, 0
	for _, cl := range clients {
		degraded += cl.degraded
		batches += len(cl.ops)
	}
	r.addNamed("degraded_batch_frac", ratio(float64(degraded), float64(batches)), "ratio", batches)
	for _, cl := range clients {
		r.outputs[cl.id+".first_batch_slacks"] = fmt.Sprintf("%016x", fnvBytes(cl.first))
	}
	r.info["rejected_429_503"] = timed.rejected

	if traced != nil {
		s := snapshot(traced.snap)
		n := float64(len(traced.batchLat))
		g, err := graph.Build(base)
		if err != nil {
			return nil, err
		}
		addCommonLayers(r, s, n, retimeProbe(g, scfg.Core.K))
		enumS, err := enumerateCost(engine.NewSession(g).Run(scfg.STA), scfg.Core)
		if err != nil {
			return nil, err
		}
		r.setLayer("pba.enumerate_s", enumS)
		ckptS, err := checkpointCost(e, base, nil)
		if err != nil {
			return nil, err
		}
		r.setLayer("netio.checkpoint_s", ckptS)
		r.setLayer("graph.build_s", median(buildS))
		recal := ratio(s.seconds("serve.recalibrate_ns"), n)
		r.setLayer("serve.recalibrate_s", recal)
		r.setLayer("serve.overhead_s", mean(traced.batchLat)-recal)
		r.setLayer("serve.rejected", ratio(s.countPrefix("serve.rejected.", ""), n))
		// Per batch, the named layer is the daemon's recalibration; the
		// remainder is HTTP, JSON, admission and the session lock.
		addTraceCost(r, timed.batchLat, traced.batchLat, recal)
	}
	return r, nil
}

// calibdTotals merges the clients' observations over one phase.
type calibdTotals struct {
	batchLat, readLat []float64
	requests          int
	rejected          int
	wall              time.Duration // the clients' running time, pauses excluded
	alloc             float64       // heap bytes the whole process allocated
	refs              []float64     // reference probes, untraced phases only
	peakHeap          float64
	snap              map[string]any
}

// calibdSegments splits an untraced phase so that the reference probe
// runs between segments, while the clients are paused, rather than
// beside them.
const calibdSegments = 8

// calibdPhase runs every client's closed loop for budget. A traced phase
// enables obs around it, exactly as measure does for the other workloads;
// an untraced one runs in segments with reference probes between them.
func calibdPhase(clients []*calibdClient, budget time.Duration, traced bool) (*calibdTotals, error) {
	if obs.Enabled() {
		return nil, fmt.Errorf("obs enabled before a measured phase")
	}
	if traced {
		obs.Reset()
		obs.Enable(true)
		defer obs.Enable(false)
	}
	marks := make([][2]int, len(clients))
	before := 0
	for i, cl := range clients {
		marks[i] = [2]int{len(cl.batchLat), len(cl.readLat)}
		before += cl.attempted
	}
	tot := &calibdTotals{}
	ref := newReference()
	segments := 1
	if !traced {
		segments = calibdSegments
		for i := 0; i < refStartProbes; i++ {
			tot.refs = append(tot.refs, ref.probe())
		}
	}
	hs := startHeapSampler()
	a0 := allocBytes()
	for s := 0; s < segments; s++ {
		t0 := time.Now()
		deadline := t0.Add(budget / time.Duration(segments))
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *calibdClient) {
				defer wg.Done()
				errs[i] = cl.loop(deadline)
			}(i, cl)
		}
		wg.Wait()
		tot.wall += time.Since(t0)
		for _, err := range errs {
			if err != nil {
				hs.stop()
				return nil, err
			}
		}
		if !traced {
			tot.refs = append(tot.refs, ref.probe())
		}
	}
	// The probes allocate nothing, so the count is the clients' and the
	// server's alone.
	tot.alloc = allocBytes() - a0
	tot.peakHeap = hs.stop()
	if traced {
		tot.snap = obs.Snapshot()
	} else if obs.Enabled() {
		return nil, fmt.Errorf("obs was enabled during an untraced phase")
	}
	for i, cl := range clients {
		tot.batchLat = append(tot.batchLat, cl.batchLat[marks[i][0]:]...)
		tot.readLat = append(tot.readLat, cl.readLat[marks[i][1]:]...)
		tot.requests += cl.attempted
		tot.rejected += cl.rejected
	}
	tot.requests -= before
	return tot, nil
}

// loop alternates upsize and downsize batches on seeded gates, each
// followed by a slacks read, until the deadline; it always ends on a
// read, so every batch's outcome is observed.
func (cl *calibdClient) loop(deadline time.Time) error {
	for time.Now().Before(deadline) {
		gate := cl.gates[cl.rand.Intn(len(cl.gates))]
		for _, up := range []bool{true, false} {
			ok, err := cl.batch(up, gate)
			if err != nil {
				return err
			}
			raw, err := cl.readSlacks()
			if err != nil {
				return err
			}
			if raw != nil {
				cl.lastRaw = raw
			}
			if ok && len(cl.ops) == 1 {
				cl.first = raw
			}
			if ok && len(cl.ops)%calibdCheckEvery == 0 {
				cl.pin()
			}
		}
	}
	return nil
}

// pin records the current state for the cold reference, once per state.
func (cl *calibdClient) pin() {
	n := len(cl.ops)
	if n == 0 || (len(cl.points) > 0 && cl.points[len(cl.points)-1].n == n) {
		return
	}
	cl.points = append(cl.points, checkPoint{n: n, before: cl.prevRaw, after: cl.lastRaw})
}

// batch posts one single-op sizing batch, retrying 429/503 after the
// advertised backoff. It reports whether the batch was accepted.
func (cl *calibdClient) batch(up bool, gate int) (bool, error) {
	op := "downsize"
	if up {
		op = "upsize"
	}
	body, err := json.Marshal(map[string]any{"ops": []serve.Op{{Op: op, Instance: gate}}})
	if err != nil {
		return false, err
	}
	for attempt := 0; attempt < 20; attempt++ {
		cl.attempted++
		t0 := time.Now()
		resp, err := cl.http.Post(cl.base+"/v1/sessions/"+cl.id+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			cl.fail("batch transport: %v", err)
			continue
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		dt := time.Since(t0)
		switch {
		case err != nil:
			cl.fail("batch body: %v", err)
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			cl.rejected++
			cl.fail("batch answered %s", resp.Status)
			time.Sleep(50 * time.Millisecond)
		case resp.StatusCode != http.StatusOK:
			cl.fail("batch answered %s: %s", resp.Status, bytes.TrimSpace(blob))
			return false, nil
		default:
			var br struct {
				Results []serve.OpResult `json:"results"`
				Status  struct {
					Degraded bool `json:"degraded"`
				} `json:"status"`
			}
			if err := json.Unmarshal(blob, &br); err != nil || len(br.Results) != 1 {
				cl.fail("batch reply unreadable: %v", err)
				return false, nil
			}
			cl.batchLat = append(cl.batchLat, dt.Seconds())
			if br.Status.Degraded {
				cl.degraded++
			}
			cl.prevRaw = cl.lastRaw
			cl.ops = append(cl.ops, sizingOp{upsize: up, gate: gate, applied: br.Results[0].Applied})
			return true, nil
		}
	}
	return false, fmt.Errorf("%s: batch kept failing", cl.id)
}

// readSlacks fetches the session's slacks and weights, returning the raw
// reply (nil when the read failed; the failure is counted).
func (cl *calibdClient) readSlacks() ([]byte, error) {
	cl.attempted++
	t0 := time.Now()
	resp, err := cl.http.Get(cl.base + "/v1/sessions/" + cl.id + "/slacks")
	if err != nil {
		cl.fail("read transport: %v", err)
		return nil, nil
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dt := time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		cl.fail("read answered %s (%v)", resp.Status, err)
		return nil, nil
	}
	cl.readLat = append(cl.readLat, dt.Seconds())
	return blob, nil
}

func (cl *calibdClient) fail(format string, args ...any) {
	cl.failed++
	if len(cl.failures) < 5 {
		cl.failures = append(cl.failures, fmt.Sprintf(format, args...))
	}
}

// coldReference replays ops on a fresh copy of the design, runs a cold
// calibration seeded with the weights read before the pinned batch and
// compares it with the slacks and weights read after it, bit for bit.
func coldReference(ctx context.Context, designJSON []byte, ops []sizingOp, p checkPoint, scfg serve.Config) (bool, string, error) {
	var before, after slacksReply
	if err := json.Unmarshal(p.before, &before); err != nil {
		return false, "unreadable reply before the pinned batch", nil
	}
	if err := json.Unmarshal(p.after, &after); err != nil {
		return false, "unreadable reply after the pinned batch", nil
	}
	d, err := netio.Load(bytes.NewReader(designJSON))
	if err != nil {
		return false, "", err
	}
	for _, op := range ops {
		if !op.applied {
			continue
		}
		inst := d.Instances[op.gate]
		to := d.Lib.Downsize(inst.Cell)
		if op.upsize {
			to = d.Lib.Upsize(inst.Cell)
		}
		if to == nil {
			return false, fmt.Sprintf("gate %d has no step the session applied", op.gate), nil
		}
		if err := d.Resize(inst, to); err != nil {
			return false, "", err
		}
	}
	g, err := graph.Build(d)
	if err != nil {
		return false, "", err
	}
	cal, err := core.NewCalibrator(engine.NewSession(g), scfg.STA, scfg.Core)
	if err != nil {
		return false, "", err
	}
	cal.SetWarmWeights(before.Weights)
	m, err := cal.Calibrate(ctx)
	if err != nil {
		return false, "", err
	}
	if !equalFloats(m.Weights, after.Weights) {
		return false, "weights differ", nil
	}
	if !equalFloats(m.MGBA.Slack, after.Slacks) {
		return false, "slacks differ", nil
	}
	return true, "", nil
}

func fnvBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash writes never fail
	return h.Sum64()
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sizableGates lists the combinational gates a sizing op can move both
// ways from their current cell.
func sizableGates(d *netlist.Design) ([]int, error) {
	g, err := graph.Build(d)
	if err != nil {
		return nil, err
	}
	var out []int
	for id, inst := range d.Instances {
		if inst.IsFF() || inst.Dead || g.IsClock(id) || d.Lib.Upsize(inst.Cell) == nil {
			continue
		}
		out = append(out, id)
	}
	if len(out) < 16 {
		return nil, fmt.Errorf("only %d sizable gates", len(out))
	}
	return out, nil
}

func createSession(hc *http.Client, base, id string, designJSON []byte) error {
	body, err := json.Marshal(map[string]any{"id": id, "design_json": json.RawMessage(designJSON)})
	if err != nil {
		return err
	}
	resp, err := hc.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		blob, _ := io.ReadAll(resp.Body) // best effort, for the message
		return fmt.Errorf("create %s: %s: %s", id, resp.Status, bytes.TrimSpace(blob))
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func deleteSession(hc *http.Client, base, id string) error {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("delete %s: %s", id, resp.Status)
	}
	return nil
}
