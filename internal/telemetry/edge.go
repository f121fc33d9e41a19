package telemetry

import "sync"

// Edge holds the per-endpoint latency histograms a daemon feeds at its
// HTTP boundary. The durations it records are WALL-CLOCK seconds —
// measured by the caller, at the edge, with time.Since — which is
// exactly why this type is quarantined: genschedvet's detlint forbids
// NewEdge and Edge methods inside deterministic zones, so a wall-clock
// latency can never leak into a schedule, a trace, or a journal.
// Everything else in this package is logical-clock only.
//
// Unlike the Sink, Edge is written by concurrent HTTP handler
// goroutines outside any shard lock, so it carries its own lock —
// the edge path can afford one; the scheduler hot path cannot. The
// endpoint set is fixed at construction, so the map itself is never
// mutated and a scrape never observes a half-built series.
type Edge struct {
	mu        sync.Mutex
	endpoints []string // sorted, fixed at construction
	series    map[string]*Histogram
}

// NewEdge returns an Edge tracking exactly the given endpoints.
// Observations for unknown endpoints are dropped.
func NewEdge(endpoints ...string) *Edge {
	e := &Edge{series: make(map[string]*Histogram, len(endpoints))}
	for _, ep := range endpoints {
		if _, dup := e.series[ep]; dup {
			continue
		}
		e.series[ep] = &Histogram{}
		e.endpoints = append(e.endpoints, ep)
	}
	return e
}

// Observe records one request's wall-clock latency in seconds for the
// endpoint. Nil-receiver safe, like the Sink hooks.
func (e *Edge) Observe(endpoint string, seconds float64) {
	if e == nil {
		return
	}
	if h := e.series[endpoint]; h != nil {
		e.mu.Lock()
		h.Observe(seconds)
		e.mu.Unlock()
	}
}

// WriteExposition emits the per-endpoint latency family.
func (e *Edge) WriteExposition(w *ExpositionWriter) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	w.HistogramVec("gensched_http_request_duration_seconds",
		"Wall-clock request latency measured at the daemon edge.",
		"endpoint", e.series)
}
