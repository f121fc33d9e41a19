package telemetry

import "testing"

// BenchmarkSinkJobLifecycle is the per-job instrumentation cost the
// online scheduler pays with telemetry enabled: one submit, one start,
// one completion and two queue passes. The OnlineThroughputTelemetry/
// OnlineThroughput CI ratio gate bounds the same cost end to end; this
// bench localizes it.
func BenchmarkSinkJobLifecycle(b *testing.B) {
	s := NewSink(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		s.JobSubmitted(now, now, i)
		s.Pass(now, 3)
		s.JobStarted(now+30, i, 30, i%8 == 0)
		s.Pass(now+30, 2)
		s.JobCompleted(now+90, i, 30, 1.5)
	}
}

// BenchmarkSinkDisabled is the same call pattern through a nil sink —
// the contract that disabled telemetry costs one nil check per hook.
func BenchmarkSinkDisabled(b *testing.B) {
	var s *Sink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		s.JobSubmitted(now, now, i)
		s.Pass(now, 3)
		s.JobStarted(now+30, i, 30, i%8 == 0)
		s.Pass(now+30, 2)
		s.JobCompleted(now+90, i, 30, 1.5)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) + 0.5)
	}
}

func BenchmarkTracerRecord(b *testing.B) {
	tr := NewTracer(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record(Event{Time: float64(i), Kind: EvSubmit, Job: int64(i), A: 1})
	}
}
