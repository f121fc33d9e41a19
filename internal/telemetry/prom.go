package telemetry

import (
	"io"
	"math"
	"sort"
	"strconv"
)

// ExpositionWriter renders metrics in the Prometheus text exposition
// format (version 0.0.4). Families are emitted in the order they are
// added and label sets in sorted order, so a scrape of a quiesced
// server is byte-deterministic — which is what lets the exposition
// lint test diff a live scrape against format rules instead of
// eyeballing it.
type ExpositionWriter struct {
	buf []byte
	err error
}

func (w *ExpositionWriter) header(name, help, typ string) {
	w.buf = append(w.buf, "# HELP "...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, help...)
	w.buf = append(w.buf, "\n# TYPE "...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, typ...)
	w.buf = append(w.buf, '\n')
}

// appendValue renders a sample value. Prometheus accepts +Inf/-Inf/NaN
// literals, unlike JSON.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Counter emits one counter family with a single unlabeled sample.
func (w *ExpositionWriter) Counter(name, help string, v uint64) {
	w.header(name, help, "counter")
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = strconv.AppendUint(w.buf, v, 10)
	w.buf = append(w.buf, '\n')
}

// Gauge emits one gauge family with a single unlabeled sample.
func (w *ExpositionWriter) Gauge(name, help string, v float64) {
	w.header(name, help, "gauge")
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = appendValue(w.buf, v)
	w.buf = append(w.buf, '\n')
}

// GaugeVec emits one gauge family with one sample per index, labeled
// label="<index>" — per-shard gauges, in shard order.
func (w *ExpositionWriter) GaugeVec(name, help, label string, vs []float64) {
	w.header(name, help, "gauge")
	for i, v := range vs {
		w.buf = append(w.buf, name...)
		w.buf = append(w.buf, '{')
		w.buf = append(w.buf, label...)
		w.buf = append(w.buf, `="`...)
		w.buf = strconv.AppendInt(w.buf, int64(i), 10)
		w.buf = append(w.buf, `"} `...)
		w.buf = appendValue(w.buf, v)
		w.buf = append(w.buf, '\n')
	}
}

// histSamples emits the _bucket/_sum/_count samples for one snapshot
// under the family name, with extraLabel (`key="value"` form, may be
// empty) spliced before the le label. Buckets are cumulative; empty
// leading buckets are elided but the +Inf bucket always appears and
// always equals _count.
func (w *ExpositionWriter) histSamples(name, extraLabel string, s HistSnapshot) {
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		last := i == len(s.Counts)-1
		if c == 0 && !last {
			// Empty buckets repeat the previous cumulative value; the
			// format permits sparse le sets as long as they stay sorted,
			// so skip them to keep scrapes compact. The +Inf bucket is
			// always emitted and always equals _count.
			continue
		}
		w.buf = append(w.buf, name...)
		w.buf = append(w.buf, "_bucket{"...)
		if extraLabel != "" {
			w.buf = append(w.buf, extraLabel...)
			w.buf = append(w.buf, ',')
		}
		w.buf = append(w.buf, `le="`...)
		if last {
			w.buf = append(w.buf, "+Inf"...)
		} else {
			w.buf = appendValue(w.buf, BucketUpper(i))
		}
		w.buf = append(w.buf, `"} `...)
		w.buf = strconv.AppendUint(w.buf, cum, 10)
		w.buf = append(w.buf, '\n')
	}
	lbl := ""
	if extraLabel != "" {
		lbl = "{" + extraLabel + "}"
	}
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, "_sum"...)
	w.buf = append(w.buf, lbl...)
	w.buf = append(w.buf, ' ')
	w.buf = appendValue(w.buf, s.Sum)
	w.buf = append(w.buf, '\n')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, "_count"...)
	w.buf = append(w.buf, lbl...)
	w.buf = append(w.buf, ' ')
	w.buf = strconv.AppendUint(w.buf, cum, 10)
	w.buf = append(w.buf, '\n')
}

// Histogram emits one unlabeled histogram family.
func (w *ExpositionWriter) Histogram(name, help string, h *Histogram) {
	w.header(name, help, "histogram")
	w.histSamples(name, "", h.Snapshot())
}

// HistogramVec emits one histogram family partitioned by a label.
// Label values are emitted in sorted order for deterministic scrapes.
func (w *ExpositionWriter) HistogramVec(name, help, label string, series map[string]*Histogram) {
	w.header(name, help, "histogram")
	keys := make([]string, 0, len(series))
	//gensched:orderinvariant keys are sorted before any series is rendered
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.histSamples(name, label+`="`+k+`"`, series[k].Snapshot())
	}
}

// WriteTo flushes the rendered exposition to dst.
func (w *ExpositionWriter) WriteTo(dst io.Writer) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := dst.Write(w.buf)
	return int64(n), err
}

// Bytes returns the rendered exposition.
func (w *ExpositionWriter) Bytes() []byte { return w.buf }

// WriteSink renders every metric in s under the gensched_ namespace.
// The family order is fixed; adding a family means appending here and
// to the README metric table.
func WriteSink(w *ExpositionWriter, s *Sink) {
	if s == nil {
		return
	}
	w.Counter("gensched_jobs_submitted_total", "Jobs accepted into the queue.", s.Submitted.Load())
	w.Counter("gensched_jobs_started_total", "Jobs started (head-of-queue and backfill).", s.Started.Load())
	w.Counter("gensched_jobs_backfilled_total", "Jobs started by backfilling past the queue head.", s.Backfilled.Load())
	w.Counter("gensched_jobs_completed_total", "Jobs finished.", s.Completed.Load())
	w.Counter("gensched_policy_swaps_total", "Hot policy swaps applied.", s.PolicySwaps.Load())
	w.Counter("gensched_adapt_rounds_total", "Adaptive rounds that reached a verdict.", s.AdaptRounds.Load())
	w.Counter("gensched_adapt_promotions_total", "Adaptive rounds that promoted a candidate policy.", s.Promotions.Load())
	w.Counter("gensched_wal_records_total", "Records appended to the write-ahead log.", s.WALRecords.Load())
	w.Counter("gensched_wal_bytes_total", "Frame bytes appended to the write-ahead log.", s.WALBytes.Load())
	w.Counter("gensched_wal_syncs_total", "Write-ahead log fsync batches.", s.WALSyncs.Load())
	w.Counter("gensched_wal_checkpoints_total", "Snapshot checkpoints written.", s.Checkpoints.Load())
	w.Counter("gensched_sched_passes_total", "Scheduling passes run.", s.Passes())
	w.Histogram("gensched_job_wait_seconds", "Logical seconds queued before start.", &s.Wait)
	w.Histogram("gensched_job_bounded_slowdown", "Bounded slowdown at completion.", &s.Slowdown)
	w.Histogram("gensched_queue_depth", "Queue length, sampled every 8th scheduling pass.", &s.QueueDepth)
	w.Histogram("gensched_adapt_drift_nats", "Adaptive KL drift per round (finite rounds).", &s.Drift)
	w.Histogram("gensched_wal_sync_batch_records", "Records covered per fsync batch.", &s.SyncBatch)
	if s.Trace != nil {
		WriteTraceCounters(w, s.Trace.Total(), s.Trace.Dropped())
	}
}

// WriteTraceCounters renders the decision-trace counters. A merged view
// over several sinks passes the sums of rings it does not merge.
func WriteTraceCounters(w *ExpositionWriter, total, dropped uint64) {
	w.Counter("gensched_trace_events_total", "Decision-trace events recorded.", total)
	w.Counter("gensched_trace_events_dropped_total", "Decision-trace events overwritten before export.", dropped)
}
