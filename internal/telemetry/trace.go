package telemetry

import (
	"io"
	"math"
	"strconv"
)

// EventKind identifies what a trace event records.
type EventKind uint8

const (
	// EvSubmit: a job entered the queue. Job = id, A = submit time.
	EvSubmit EventKind = iota
	// EvStart: a job started at the head of the queue. Job = id,
	// A = wait, B = queue position is not recorded (always head).
	EvStart
	// EvBackfill: a job started by backfilling past the queue head.
	// Job = id, A = wait.
	EvBackfill
	// EvComplete: a job finished. Job = id, A = wait, B = bounded
	// slowdown.
	EvComplete
	// EvPolicy: the scoring policy was hot-swapped. Str = expression.
	EvPolicy
	// EvAdapt: an adaptive round reached a verdict. A = round number,
	// B = observed drift in nats (omitted when non-finite), Str =
	// verdict reason, Job = 1 if a candidate was promoted else 0.
	EvAdapt
	// EvWALAppend: a record was appended to the write-ahead log.
	// Job = journal sequence, A = frame bytes.
	EvWALAppend
	// EvWALSync: the WAL was fsynced. A = records in the batch.
	EvWALSync
	// EvWALCheckpoint: a snapshot checkpoint was written and old
	// segments rotated out. Job = snapshot sequence, A = snapshot bytes.
	EvWALCheckpoint

	numEventKinds
)

// eventNames are the stable wire names; index = EventKind.
var eventNames = [numEventKinds]string{
	"submit", "start", "backfill", "complete",
	"policy", "adapt", "wal_append", "wal_sync", "wal_checkpoint",
}

// String returns the stable wire name of the kind.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one decision-trace record. Time is the scheduler's logical
// clock, never a wall clock; Seq is a monotonic per-tracer sequence
// that totally orders events sharing a logical instant.
type Event struct {
	Seq  uint64
	Time float64
	Kind EventKind
	Job  int64   // job id / journal seq / promoted flag, per kind
	A    float64 // first numeric payload, per kind
	B    float64 // second numeric payload, per kind
	Str  string  // expression or verdict reason, per kind
}

// slot is an Event as stored in the ring: 32 bytes against Event's 64,
// two slots per cache line. Seq is implicit (a retained slot at ring
// position p holds sequence p modulo wraparound), Str lives in a
// seq-keyed side list — the hot event kinds (submit, start, backfill,
// complete, WAL appends) never carry a string — and the kind is packed
// into the job word's low byte: meta = job<<8 | kind, with the signed
// job recovered by an arithmetic shift. Job values (job ids, journal
// sequences, a promoted flag) therefore live in 56 bits, |job| < 2^55 —
// a journal would need to append at a million records a second for a
// millennium to overflow that. The ring is the telemetry hot path's
// main cache load: Record streams one dirtied slot per event through
// the ring, so every byte shaved here is submit-path throughput.
type slot struct {
	time float64
	a    float64
	b    float64
	meta uint64 // job<<8 | kind
}

// strEntry associates a rare event's string payload with its sequence.
type strEntry struct {
	seq uint64
	str string
}

// Tracer is a bounded ring buffer of Events. When full, the oldest
// events are overwritten and Dropped counts them; Seq keeps advancing,
// so consumers can detect gaps. Like the rest of the Sink, the tracer
// is plain single-writer state: Record runs on the scheduler thread,
// a hot path where it must cost one compact store, and any concurrent
// reader holds the writer's external lock (the daemon's shard lock).
type Tracer struct {
	ring []slot
	mask uint64     // len(ring)-1; the ring length is a power of two
	next uint64     // next sequence to assign; also total events ever recorded
	strs []strEntry // string payloads of retained rare events, seq-ascending
}

// NewTracer returns a tracer holding at least capacity events; the
// ring is sized to the next power of two so Record indexes with a mask
// instead of a division. capacity < 1 is clamped to 1.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{ring: make([]slot, n), mask: uint64(n - 1)}
}

// Record appends one event, assigning its sequence number. The e.Seq
// field is ignored — sequences are the tracer's to assign. Record is
// the general entry point and is too big to inline; the per-job hooks
// in sink.go bypass it through record, the call-free scalar core.
func (tr *Tracer) Record(e Event) {
	if e.Str != "" {
		tr.recordWithStr(e)
		return
	}
	tr.record(e.Time, e.Kind, e.Job, e.A, e.B)
}

// record appends a string-free event's payload: one compact store and
// an increment, no Event construction, no calls — small enough that it
// inlines into every hot hook, which is what keeps an instrumented
// submit within the CI overhead gate.
func (tr *Tracer) record(time float64, kind EventKind, job int64, a, b float64) {
	tr.ring[tr.next&tr.mask] = slot{time: time, a: a, b: b, meta: uint64(job)<<8 | uint64(kind)}
	tr.next++
}

// recordWithStr records an event that carries a string payload, storing
// the string in the seq-keyed side list and pruning entries whose
// events have been overwritten. Only the rare kinds (policy swaps,
// adapt verdicts) carry strings, so this path stays off the per-job hot
// path and the list stays short.
func (tr *Tracer) recordWithStr(e Event) {
	cap64 := uint64(len(tr.ring))
	if tr.next+1 > cap64 {
		low := tr.next + 1 - cap64 // oldest seq still retained once this event lands
		i := 0
		for i < len(tr.strs) && tr.strs[i].seq < low {
			i++
		}
		if i > 0 {
			tr.strs = append(tr.strs[:0], tr.strs[i:]...)
		}
	}
	tr.strs = append(tr.strs, strEntry{seq: tr.next, str: e.Str})
	tr.record(e.Time, e.Kind, e.Job, e.A, e.B)
}

// Len returns the number of events currently retained.
func (tr *Tracer) Len() int {
	if tr.next < uint64(len(tr.ring)) {
		return int(tr.next)
	}
	return len(tr.ring)
}

// Dropped returns how many events were overwritten before they could
// be read.
func (tr *Tracer) Dropped() uint64 {
	if n := uint64(len(tr.ring)); tr.next > n {
		return tr.next - n
	}
	return 0
}

// Total returns how many events were ever recorded.
func (tr *Tracer) Total() uint64 { return tr.next }

// Events returns the retained events oldest-first, reconstructing each
// Event from its compact slot (sequence from ring position, string
// payload from the side list). sample > 1 keeps only events whose Seq
// is a multiple of sample; limit > 0 caps the result to the most
// recent limit events after sampling.
func (tr *Tracer) Events(sample int, limit int) []Event {
	n := tr.next
	cap64 := uint64(len(tr.ring))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Event, 0, n-start)
	si := 0 // walks tr.strs in step with the ascending seq scan
	for s := start; s < n; s++ {
		for si < len(tr.strs) && tr.strs[si].seq < s {
			si++
		}
		if sample > 1 && s%uint64(sample) != 0 {
			continue
		}
		sl := tr.ring[s&tr.mask]
		e := Event{Seq: s, Time: sl.time, Kind: EventKind(sl.meta), Job: int64(sl.meta) >> 8, A: sl.a, B: sl.b}
		if si < len(tr.strs) && tr.strs[si].seq == s {
			e.Str = tr.strs[si].str
		}
		out = append(out, e)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// appendFloat renders f deterministically: shortest round-trip 'g'
// formatting, with non-finite values rendered as JSON null (JSON has
// no Inf/NaN literals, and the adaptive loop's first-round drift is
// +Inf by construction).
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// AppendEventJSON renders one event as a single-line JSON object with
// keys in fixed order, without the trailing newline. Exported so the
// federation layer can splice per-shard fields into the same canonical
// rendering instead of growing a second, drifting formatter.
func AppendEventJSON(b []byte, e Event) []byte { return appendEventJSON(b, e) }

// appendEventJSON renders one event as a single-line JSON object with
// keys in fixed order. Hand-rolled rather than encoding/json so the
// byte stream is reproducible by construction and allocation-light.
func appendEventJSON(b []byte, e Event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t":`...)
	b = appendFloat(b, e.Time)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	if e.Job != 0 || e.Kind == EvSubmit || e.Kind == EvStart || e.Kind == EvBackfill || e.Kind == EvComplete {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, e.Job, 10)
	}
	if e.A != 0 {
		b = append(b, `,"a":`...)
		b = appendFloat(b, e.A)
	}
	if e.B != 0 && !math.IsNaN(e.B) && !math.IsInf(e.B, 0) {
		b = append(b, `,"b":`...)
		b = appendFloat(b, e.B)
	}
	if e.Str != "" {
		b = append(b, `,"str":`...)
		b = strconv.AppendQuote(b, e.Str)
	}
	b = append(b, '}')
	return b
}

// WriteEventsJSONL writes events as one JSON object per line, oldest
// first. The byte stream is deterministic for a deterministic event
// stream. Split from the Tracer so a daemon can copy the ring under
// its lock and render to a slow client after releasing it.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	var buf []byte
	for _, e := range events {
		buf = appendEventJSON(buf[:0], e)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes the retained events as one JSON object per line,
// oldest first.
func (tr *Tracer) WriteJSONL(w io.Writer, sample, limit int) error {
	return WriteEventsJSONL(w, tr.Events(sample, limit))
}

// WriteEventsChrome writes events in the Chrome trace-event JSON
// format (instant events, ph "i"), loadable in chrome://tracing and
// Perfetto. Logical seconds map to microseconds on the trace timeline.
func WriteEventsChrome(w io.Writer, events []Event) error {
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	var buf []byte
	for i, e := range events {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":"`...)
		buf = append(buf, e.Kind.String()...)
		buf = append(buf, `","ph":"i","s":"g","pid":1,"tid":1,"ts":`...)
		buf = appendFloat(buf, e.Time*1e6)
		buf = append(buf, `,"args":{"seq":`...)
		buf = strconv.AppendUint(buf, e.Seq, 10)
		buf = append(buf, `,"job":`...)
		buf = strconv.AppendInt(buf, e.Job, 10)
		buf = append(buf, `,"a":`...)
		buf = appendFloat(buf, e.A)
		buf = append(buf, `,"b":`...)
		buf = appendFloat(buf, e.B)
		if e.Str != "" {
			buf = append(buf, `,"str":`...)
			buf = strconv.AppendQuote(buf, e.Str)
		}
		buf = append(buf, `}}`...)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// WriteChromeTrace writes the retained events in the Chrome
// trace-event JSON format.
func (tr *Tracer) WriteChromeTrace(w io.Writer, sample, limit int) error {
	return WriteEventsChrome(w, tr.Events(sample, limit))
}
