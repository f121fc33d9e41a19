package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's origin; parent is the index of the enclosing span
// (-1 for a root); req is shared by every span of one request: a root
// span starts a new request, and children inherit their parent's.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed loops carry the
// same code in both modes.
type tracer struct {
	origin  time.Time
	spans   []span
	limit   int
	dropped int
	reqs    int64 // request ids handed out
}

// maxSpans caps memory: a traced phase at tens of thousands of
// requests per second stays well under it.
const maxSpans = 1 << 20

// traceEvery samples the daemon workloads' requests (and frames): one in
// traceEvery gets spans, which keeps a traced run's span file to tens of
// megabytes while every layer's self time is still averaged over
// thousands of requests.
const traceEvery = 4

func newTracer() *tracer { return &tracer{origin: time.Now(), limit: maxSpans} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index (-1 when untraced or full).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, t.now(), -1, parent)
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.now()
}

// record adds a span whose bounds the caller measured itself.
func (t *tracer) record(name string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, int64(start.Sub(t.origin)), int64(end.Sub(t.origin)), parent)
}

func (t *tracer) add(name string, start, end int64, parent int) int {
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	var req int64
	if parent >= 0 {
		req = t.spans[parent].req
	} else {
		t.reqs++
		req = t.reqs
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: int32(parent), req: req})
	return len(t.spans) - 1
}

// layerTime is one span name's totals.
type layerTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes sums, per span name, the spans' durations and their self
// time: the duration minus the part of the interval that child spans
// cover (overlapping children are counted once).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[string]layerTime)
	var iv [][2]int64
	for i, s := range spans {
		if s.end < s.start {
			continue // never closed
		}
		iv = iv[:0]
		for _, c := range children[int32(i)] {
			cs := spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		curLo, curHi = -1, -1
		for _, x := range iv {
			if x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		lt := out[s.name]
		lt.Count++
		lt.TotalS += float64(s.end-s.start) / 1e9
		lt.SelfS += float64(s.end-s.start-covered) / 1e9
		out[s.name] = lt
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// chrome://tracing or Perfetto), one track per request id, with the
// per-name self times under otherData.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n"); err != nil {
		f.Close()
		return err
	}
	sep := ""
	for i, s := range t.spans {
		if s.end < s.start {
			continue
		}
		w.WriteString(sep)
		sep = ","
		if err := enc.Encode(chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.req,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"span": i, "parent": s.parent},
		}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString(`],"otherData":`)
	if err := enc.Encode(map[string]any{"self_times": selfTimes(t.spans), "dropped_spans": t.dropped}); err != nil {
		f.Close()
		return err
	}
	w.WriteString("}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
