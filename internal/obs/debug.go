package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"mgba/internal/report"
)

// Server is a live debug endpoint bound to a TCP address, serving
// /debug/vars (expvar-compatible metric snapshot), /debug/pprof/* and
// /debug/summary (a plain-text run summary rendered with report.Table).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve enables obs and starts the debug HTTP server on addr
// (host:port; port 0 picks a free port — read the bound address back
// via Addr). The server runs until Close.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	Enable(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		WriteVars(w)
	})
	mux.HandleFunc("/debug/summary", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, Summary())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux,
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}}
	go s.srv.Serve(ln)
	return s, nil
}

// Request read bounds of the debug server: its endpoints take no request
// body, so a client that has not sent a complete request by then is cut
// off.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
)

// Addr returns the server's bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// CloseGrace bounds how long Close waits for in-flight debug requests
// (a /debug/pprof/profile capture, a slow summary scrape) to finish
// before tearing their connections down.
const CloseGrace = 3 * time.Second

// Close shuts the server down gracefully: the listener stops accepting
// immediately, in-flight requests get up to CloseGrace to complete, and
// only stragglers beyond that are cut off.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), CloseGrace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// Summary renders every registered metric as a plain-text run summary
// using the standard report table: counters and gauges by name, then
// histograms with count, mean and max-bucket detail.
func Summary() string {
	snap := Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)

	t := report.New("run summary", "metric", "value")
	h := report.New("durations", "histogram", "count", "mean", "buckets")
	for _, name := range names {
		switch v := snap[name].(type) {
		case int64:
			t.AddRow(name, fmt.Sprintf("%d", v))
		case float64:
			t.AddRow(name, report.F(v, 4))
		case HistogramSnapshot:
			mean := "-"
			if v.Count > 0 {
				mean = meanDuration(name, v.Sum/float64(v.Count))
			}
			h.AddRow(name, fmt.Sprintf("%d", v.Count), mean, bucketLine(v))
		}
	}
	var b strings.Builder
	b.WriteString(t.String())
	if len(h.Rows) > 0 {
		b.WriteString("\n")
		b.WriteString(h.String())
	}
	return b.String()
}

// meanDuration formats a histogram mean: _ns-suffixed histograms render
// as human durations, everything else as a plain number.
func meanDuration(name string, mean float64) string {
	if strings.HasSuffix(name, "_ns") {
		return time.Duration(mean).Round(time.Microsecond).String()
	}
	return report.F(mean, 2)
}

// bucketLine compacts a histogram's non-empty buckets into
// "<=bound:count" pairs.
func bucketLine(v HistogramSnapshot) string {
	var parts []string
	for i, c := range v.Buckets {
		if c == 0 {
			continue
		}
		label := "+Inf"
		if i < len(v.Bounds) {
			label = fmt.Sprintf("%g", v.Bounds[i])
		}
		parts = append(parts, fmt.Sprintf("<=%s:%d", label, c))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
