package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// withObs runs fn with obs enabled and restores the prior state.
func withObs(t *testing.T, on bool, fn func()) {
	t.Helper()
	prev := Enabled()
	Enable(on)
	defer Enable(prev)
	fn()
}

func TestCounterGatedOnEnable(t *testing.T) {
	c := NewCounter("test.counter.gated")
	Enable(false)
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter moved: %d", got)
	}
	withObs(t, true, func() {
		c.Inc()
		c.Add(5)
	})
	if got := c.Value(); got != 6 {
		t.Fatalf("enabled counter = %d, want 6", got)
	}
}

func TestGaugeAndHistogram(t *testing.T) {
	g := NewGauge("test.gauge")
	h := NewHistogram("test.hist", []float64{10, 100})
	withObs(t, true, func() {
		g.Set(3.5)
		g.SetInt(7)
		h.Observe(5)
		h.Observe(50)
		h.Observe(500)
	})
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("hist count = %d, want 3", got)
	}
	if got := h.Sum(); got != 555 {
		t.Fatalf("hist sum = %v, want 555", got)
	}
	for i, want := range []int64{1, 1, 1} {
		if got := h.buckets[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestRegistryIdempotent(t *testing.T) {
	a := NewCounter("test.registry.same")
	b := NewCounter("test.registry.same")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	h1 := NewHistogram("test.registry.hist", []float64{1, 2})
	h2 := NewHistogram("test.registry.hist", []float64{9})
	if h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
	if len(h1.bounds) != 2 {
		t.Fatal("re-registration changed histogram bounds")
	}
}

func TestClockAndObserveSince(t *testing.T) {
	Enable(false)
	if !Clock().IsZero() {
		t.Fatal("disabled Clock should be zero")
	}
	h := NewHistogram("test.clock.hist", DurationBuckets)
	h.ObserveSince(time.Time{})
	if h.Count() != 0 {
		t.Fatal("ObserveSince recorded on zero time")
	}
	withObs(t, true, func() {
		t0 := Clock()
		if t0.IsZero() {
			t.Fatal("enabled Clock returned zero")
		}
		h.ObserveSince(t0)
	})
	if h.Count() != 1 {
		t.Fatalf("hist count = %d, want 1", h.Count())
	}
}

func TestResetKeepsRegistrations(t *testing.T) {
	c := NewCounter("test.reset.counter")
	h := NewHistogram("test.reset.hist", []float64{1})
	withObs(t, true, func() {
		c.Inc()
		h.Observe(2)
	})
	Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset did not zero values")
	}
	if NewCounter("test.reset.counter") != c {
		t.Fatal("Reset dropped the registration")
	}
}

func TestWriteVarsIsValidSortedJSON(t *testing.T) {
	c := NewCounter("test.vars.counter")
	withObs(t, true, func() { c.Add(42) })
	var buf bytes.Buffer
	if err := WriteVars(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteVars output is not JSON: %v\n%s", err, buf.String())
	}
	if got, ok := decoded["test.vars.counter"].(float64); !ok || got != 42 {
		t.Fatalf("counter missing from vars: %v", decoded["test.vars.counter"])
	}
}

func TestSpanHierarchyAndSink(t *testing.T) {
	Enable(false)
	if s := StartSpan("test.off"); s != noopSpan {
		t.Fatal("disabled StartSpan should return the shared noop span")
	}
	var buf bytes.Buffer
	SetSink(&buf)
	defer SetSink(nil)
	withObs(t, true, func() {
		root := StartSpan("test.root")
		child := root.Child("step")
		if got := child.Path(); got != "test.root.step" {
			t.Fatalf("child path = %q", got)
		}
		child.End()
		child.End() // idempotent
		root.End()
		Event("test_event", "k", 1)
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // 2 starts + 2 ends + 1 event
		t.Fatalf("got %d JSONL lines, want 5:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
	if h := NewHistogram("span.test.root_ns", DurationBuckets); h.Count() != 1 {
		t.Fatalf("span histogram count = %d, want 1", h.Count())
	}
}

func TestServeEndpoints(t *testing.T) {
	prev := Enabled()
	defer Enable(prev)
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !Enabled() {
		t.Fatal("Serve should enable obs")
	}
	NewCounter("test.serve.counter").Inc()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vars := get("/debug/vars")
	var decoded map[string]any
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if len(decoded) == 0 {
		t.Fatal("/debug/vars snapshot is empty")
	}
	if !strings.Contains(get("/debug/summary"), "run summary") {
		t.Fatal("/debug/summary missing the summary table")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("/debug/pprof/ index missing")
	}
}

// TestCloseCompletesInFlightRequest: Close must drain a request that is
// already being served instead of dropping its connection — the
// historical http.Server.Close cut off in-flight /debug/pprof captures
// and /debug/summary scrapes mid-body.
func TestCloseCompletesInFlightRequest(t *testing.T) {
	prev := Enabled()
	defer Enable(prev)
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A 1-second execution trace holds its request in flight long enough
	// for Close to arrive mid-response.
	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/trace?seconds=1")
		if err != nil {
			done <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = errServeStatus(resp.Status)
		}
		done <- result{body, err}
	}()
	// Wait until the trace capture is actually running server-side before
	// shutting down.
	time.Sleep(200 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request failed across Close: %v", res.err)
	}
	if len(res.body) == 0 {
		t.Fatal("in-flight trace returned an empty body")
	}
}

type errServeStatus string

func (e errServeStatus) Error() string { return "unexpected status " + string(e) }

func TestSummaryRendersAllKinds(t *testing.T) {
	c := NewCounter("test.summary.counter")
	g := NewGauge("test.summary.gauge")
	h := NewHistogram("test.summary.hist_ns", DurationBuckets)
	withObs(t, true, func() {
		c.Inc()
		g.Set(1.5)
		h.Observe(2e6)
	})
	s := Summary()
	for _, want := range []string{"test.summary.counter", "test.summary.gauge", "test.summary.hist_ns"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// The disabled hot path must be allocation-free: a counter increment, a
// gauge store, a histogram observation and a clock read all cost one
// atomic load and a branch.
func TestDisabledHotPathZeroAllocs(t *testing.T) {
	Enable(false)
	c := NewCounter("test.allocs.counter")
	g := NewGauge("test.allocs.gauge")
	h := NewHistogram("test.allocs.hist", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(2)
		h.ObserveSince(Clock())
	}); n != 0 {
		t.Fatalf("disabled hot path allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s := StartSpan("test.allocs.span")
		s.End()
	}); n != 0 {
		t.Fatalf("disabled span allocates %v/op, want 0", n)
	}
}

// The enabled counter/gauge/histogram path stays allocation-free too —
// only spans and events may allocate when obs is on.
func TestEnabledMetricsZeroAllocs(t *testing.T) {
	prev := Enabled()
	Enable(true)
	defer Enable(prev)
	c := NewCounter("test.allocs.on.counter")
	g := NewGauge("test.allocs.on.gauge")
	h := NewHistogram("test.allocs.on.hist", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2)
		h.Observe(5e6)
	}); n != 0 {
		t.Fatalf("enabled metric path allocates %v/op, want 0", n)
	}
}

// TestServeSetsReadTimeouts: the debug server bounds how long a client
// may take to send its headers and its whole request.
func TestServeSetsReadTimeouts(t *testing.T) {
	prev := Enabled()
	defer Enable(prev)
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.ReadHeaderTimeout != readHeaderTimeout || srv.srv.ReadTimeout != readTimeout {
		t.Fatalf("read timeouts %v/%v, want %v/%v", srv.srv.ReadHeaderTimeout, srv.srv.ReadTimeout,
			readHeaderTimeout, readTimeout)
	}
}
