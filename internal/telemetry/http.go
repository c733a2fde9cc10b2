package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// histJSON is the wire shape of one histogram on the /metrics endpoint.
type histJSON struct {
	Count int64   `json:"count"`
	Min   int64   `json:"min_ns"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P95   int64   `json:"p95_ns"`
	P99   int64   `json:"p99_ns"`
	Max   int64   `json:"max_ns"`
	CV    float64 `json:"cv"`
}

// metricsJSON is the /metrics document: expvar-style cumulative state.
type metricsJSON struct {
	Timestamp  time.Time           `json:"timestamp"`
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]histJSON `json:"histograms"`
}

// Handler serves the registry's live state as a JSON document, expvar-style:
// cumulative counters, instantaneous gauges, and per-histogram latency
// summaries. Map keys are emitted in sorted order by encoding/json, so the
// document is deterministic for a given state.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		doc := metricsJSON{
			Timestamp:  time.Now(),
			Counters:   make(map[string]int64),
			Gauges:     make(map[string]int64),
			Histograms: make(map[string]histJSON),
		}
		for _, c := range r.Counters() {
			doc.Counters[c.Name] = c.Value
		}
		for _, g := range r.Gauges() {
			doc.Gauges[g.Name] = g.Value
		}
		for _, h := range r.Histograms() {
			doc.Histograms[h.Name] = histJSON{
				Count: h.Snap.Count(),
				Min:   h.Snap.Min(),
				Mean:  h.Snap.Mean(),
				P50:   h.Snap.Percentile(50),
				P95:   h.Snap.Percentile(95),
				P99:   h.Snap.Percentile(99),
				Max:   h.Snap.Max(),
				CV:    h.Snap.CV(),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}

// NewServeMux mounts the observability surface: /metrics (the registry
// JSON) and the standard net/http/pprof profiling endpoints under
// /debug/pprof/.
func NewServeMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// TraceHandler serves the tracer's completed-trace ring buffer as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto. A nil tracer
// serves an empty (but valid) document.
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteChromeTrace(w, t.Traces())
	})
}

// MountTrace adds the /trace endpoint to a mux built by NewServeMux.
func MountTrace(mux *http.ServeMux, t *Tracer) {
	mux.Handle("/trace", TraceHandler(t))
}

// MountJSON mounts a handler at pattern that serves snapshot()'s result as
// an indented JSON document, computed per request. The storage layer's
// /storage endpoint is mounted this way; any introspection document works.
// A nil snapshot mounts nothing.
func MountJSON(mux *http.ServeMux, pattern string, snapshot func() any) {
	if snapshot == nil {
		return
	}
	mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snapshot())
	})
}

// MountHealth mounts a health endpoint at pattern: check() returns the body
// document and whether the system is healthy; unhealthy responses carry
// status 503 so load balancers and probes need only the status code. A nil
// check mounts nothing.
func MountHealth(mux *http.ServeMux, pattern string, check func() (doc any, ok bool)) {
	if check == nil {
		return
	}
	mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
		doc, ok := check()
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}

// ServeMux starts the observability HTTP server on addr with a caller-built
// mux — NewServeMux plus whatever MountTrace/MountJSON/MountHealth endpoints
// the caller added — in a background goroutine, returning the server and the
// bound address. The caller owns shutdown via srv.Close.
func ServeMux(addr string, mux *http.ServeMux) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
