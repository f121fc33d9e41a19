// Package detlint_edge is a seeded-violation fixture for the detlint
// Edge quarantine: constructing or feeding the wall-clock telemetry
// Edge inside a deterministic zone must be flagged, while the
// logical-clock Sink API passes.
package detlint_edge

import "github.com/hpcsched/gensched/internal/telemetry"

func construct() *telemetry.Edge {
	return telemetry.NewEdge("submit", "complete") // want "telemetry.NewEdge"
}

func feed(e *telemetry.Edge) {
	e.Observe("submit", 0.25) // want "telemetry.Edge"
}

func export(e *telemetry.Edge, w *telemetry.ExpositionWriter) {
	e.WriteExposition(w) // want "telemetry.Edge"
}

// The logical-clock Sink API is legal everywhere in the boundary: it
// must draw no diagnostics.
func sink(s *telemetry.Sink) {
	s.JobSubmitted(100, 100, 1)
	s.JobStarted(130, 1, 30, false)
	s.JobCompleted(250, 1, 30, 1.5)
	var h telemetry.Histogram
	h.Observe(30)
}

// An annotated call site is exempt, like every detlint rule.
func blessed() *telemetry.Edge {
	//gensched:allow detlint fixture exercises the escape hatch
	return telemetry.NewEdge("submit")
}
