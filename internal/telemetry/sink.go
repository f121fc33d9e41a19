package telemetry

import "math"

// Sink bundles the counters, histograms and tracer one scheduler
// instance reports into. Every method is nil-receiver safe: an
// uninstrumented scheduler holds a nil *Sink and each hook costs one
// nil check — no allocation, no atomic, no branch on a config struct —
// which is what lets the differential suites pin that attaching
// telemetry changes no output bit.
//
// An enabled hook is plain arithmetic on single-writer state: the
// scheduler thread is the only writer, and readers synchronize on the
// writer's external lock (the daemon's shard lock) — see the package
// comment for why the hot path carries no atomics of its own.
type Sink struct {
	// Counters.
	Submitted   Counter // jobs accepted into the queue
	Started     Counter // jobs started, head-of-queue and backfill alike
	Backfilled  Counter // subset of Started that jumped the queue head
	Completed   Counter // jobs finished
	PolicySwaps Counter // hot policy swaps applied
	AdaptRounds Counter // adaptive rounds that reached a verdict
	Promotions  Counter // adaptive rounds that promoted a candidate
	WALRecords  Counter // records appended to the write-ahead log
	WALBytes    Counter // frame bytes appended to the write-ahead log
	WALSyncs    Counter // fsync batches
	Checkpoints Counter // snapshot checkpoints written

	// Histograms over logical-clock quantities.
	Wait       Histogram // seconds queued before start
	Slowdown   Histogram // bounded slowdown at completion
	QueueDepth Histogram // queue length, sampled every 8th scheduling pass
	Drift      Histogram // adaptive KL drift (nats), finite rounds only
	SyncBatch  Histogram // records per fsync batch

	Trace *Tracer

	passes uint64 // scheduling passes observed (drives QueueDepth sampling)
}

// NewSink returns a sink whose tracer retains traceCap events.
func NewSink(traceCap int) *Sink {
	return &Sink{Trace: NewTracer(traceCap)}
}

// Merge folds another sink's counters, histograms and pass count into s.
// The federation layer uses it to render one aggregate /metrics view over
// per-shard sinks: summing in fixed shard order keeps the merged values
// deterministic. Traces are NOT merged here — event streams interleave by
// (clock, shard, seq), which is the federation's job, not a sum.
func (s *Sink) Merge(o *Sink) {
	if s == nil || o == nil {
		return
	}
	s.Submitted.Add(o.Submitted.Load())
	s.Started.Add(o.Started.Load())
	s.Backfilled.Add(o.Backfilled.Load())
	s.Completed.Add(o.Completed.Load())
	s.PolicySwaps.Add(o.PolicySwaps.Load())
	s.AdaptRounds.Add(o.AdaptRounds.Load())
	s.Promotions.Add(o.Promotions.Load())
	s.WALRecords.Add(o.WALRecords.Load())
	s.WALBytes.Add(o.WALBytes.Load())
	s.WALSyncs.Add(o.WALSyncs.Load())
	s.Checkpoints.Add(o.Checkpoints.Load())
	s.Wait.Merge(&o.Wait)
	s.Slowdown.Merge(&o.Slowdown)
	s.QueueDepth.Merge(&o.QueueDepth)
	s.Drift.Merge(&o.Drift)
	s.SyncBatch.Merge(&o.SyncBatch)
	s.passes += o.passes
}

// trace records an event if tracing is on. Only the rare
// string-carrying hooks (policy swaps, adapt verdicts) go through
// here; the per-job hooks use traceFast.
func (s *Sink) trace(e Event) {
	if s.Trace != nil {
		s.Trace.Record(e)
	}
}

// traceFast records a string-free event if tracing is on. It passes
// scalars instead of an Event so the whole path — nil check, slot
// store, sequence increment — inlines into each hot hook with no
// 64-byte struct construction or copy.
func (s *Sink) traceFast(time float64, kind EventKind, job int64, a, b float64) {
	if tr := s.Trace; tr != nil {
		tr.record(time, kind, job, a, b)
	}
}

// JobSubmitted records a job entering the queue at logical time now;
// submit is the job's own submit time, earlier than now when the
// arrival is reported late. Stamping the event with now keeps every
// trace ring in clock order, which the merged trace relies on.
func (s *Sink) JobSubmitted(now, submit float64, id int) {
	if s == nil {
		return
	}
	s.Submitted.Inc()
	s.traceFast(now, EvSubmit, int64(id), submit, 0)
}

// JobStarted records a job start. backfilled distinguishes a queue-head
// start from a backfill start.
func (s *Sink) JobStarted(now float64, id int, wait float64, backfilled bool) {
	if s == nil {
		return
	}
	s.Started.Inc()
	s.Wait.Observe(wait)
	kind := EvStart
	if backfilled {
		s.Backfilled.Inc()
		kind = EvBackfill
	}
	s.traceFast(now, kind, int64(id), wait, 0)
}

// JobCompleted records a job finishing with its wait and bounded
// slowdown.
func (s *Sink) JobCompleted(now float64, id int, wait, bsld float64) {
	if s == nil {
		return
	}
	s.Completed.Inc()
	s.Slowdown.Observe(bsld)
	s.traceFast(now, EvComplete, int64(id), wait, bsld)
}

// Pass records one scheduling pass over the queue. Queue depth enters
// the histogram every 8th pass: passes are the highest-frequency hook
// on the submit path, the depth distribution is statistically the same
// at an eighth the cost, and the sampling is deterministic — the pass
// count is a function of the workload, not of timing.
func (s *Sink) Pass(now float64, queued int) {
	if s == nil {
		return
	}
	if s.passes&7 == 0 {
		s.sampleQueueDepth(queued)
	}
	s.passes++
}

// sampleQueueDepth is the 1-in-8 cold path of Pass, held out of the
// inliner so that Pass itself — nil check, mask test, increment —
// stays within the inline budget at every scheduling pass.
//
//go:noinline
func (s *Sink) sampleQueueDepth(queued int) {
	s.QueueDepth.Observe(float64(queued))
}

// Passes returns the number of scheduling passes observed.
func (s *Sink) Passes() uint64 { return s.passes }

// PolicySwapped records a hot policy swap.
func (s *Sink) PolicySwapped(now float64, expr string) {
	if s == nil {
		return
	}
	s.PolicySwaps.Inc()
	s.trace(Event{Time: now, Kind: EvPolicy, Str: expr})
}

// AdaptRound records an adaptive round verdict. drift may be +Inf on
// the first round; only finite drifts enter the histogram, but the
// trace event always carries the round.
func (s *Sink) AdaptRound(now float64, round int, reason string, drift float64, promoted bool) {
	if s == nil {
		return
	}
	s.AdaptRounds.Inc()
	if !math.IsNaN(drift) && !math.IsInf(drift, 0) {
		s.Drift.Observe(drift)
	}
	var p int64
	if promoted {
		s.Promotions.Inc()
		p = 1
	}
	s.trace(Event{Time: now, Kind: EvAdapt, Job: p, A: float64(round), B: drift, Str: reason})
}

// WALAppend records one journal append of frameBytes at journal
// sequence seq.
func (s *Sink) WALAppend(now float64, seq uint64, frameBytes int) {
	if s == nil {
		return
	}
	s.WALRecords.Inc()
	s.WALBytes.Add(uint64(frameBytes))
	s.traceFast(now, EvWALAppend, int64(seq), float64(frameBytes), 0)
}

// WALSync records one fsync covering batch records.
func (s *Sink) WALSync(now float64, batch int) {
	if s == nil {
		return
	}
	s.WALSyncs.Inc()
	s.SyncBatch.Observe(float64(batch))
	s.traceFast(now, EvWALSync, 0, float64(batch), 0)
}

// WALCheckpoint records a snapshot checkpoint at journal sequence seq
// with the encoded snapshot size.
func (s *Sink) WALCheckpoint(now float64, seq uint64, snapBytes int) {
	if s == nil {
		return
	}
	s.Checkpoints.Inc()
	s.traceFast(now, EvWALCheckpoint, int64(seq), float64(snapBytes), 0)
}
