package main

import (
	"bufio"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5}, 1.5, 4, 5.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := median(c.xs); got != c.m {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.m)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.1, 1}, {99.5, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 99.99}, {10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestJSONCheckerCountsOnePerturbedStart(t *testing.T) {
	starts := []online.Start{{ID: 3, Time: 10, Wait: 2}, {ID: 7, Time: 10.5, Wait: 0.25, Backfilled: true}}
	want := appendWantJSON(nil, starts, 10.5)
	if !checkJSONReply(200, want, want, starts) {
		t.Fatal("the exact reply must pass")
	}
	// Same starts, other formatting: the by-value path accepts it.
	other := []byte(`{"now": 10.5, "started": [{"id": 3, "time": 1e1, "wait": 2, "backfilled": false}, {"id": 7, "time": 10.50, "wait": 0.25, "backfilled": true}]}`)
	if !checkJSONReply(200, other, want, starts) {
		t.Error("a reformatted reply with the twin's starts must pass")
	}
	for _, perturbed := range [][]online.Start{
		{{ID: 3, Time: 10, Wait: 2}, {ID: 8, Time: 10.5, Wait: 0.25, Backfilled: true}},
		{{ID: 3, Time: 10, Wait: 2}, {ID: 7, Time: 10.500001, Wait: 0.25, Backfilled: true}},
		{{ID: 3, Time: 10, Wait: 2}},
	} {
		body := appendWantJSON(nil, perturbed, 10.5)
		if checkJSONReply(200, body, want, starts) {
			t.Errorf("reply %s passed against the twin's starts", body)
		}
	}
	if checkJSONReply(409, want, want, starts) {
		t.Error("a non-200 reply must fail")
	}
}

func TestWireCheckerCountsOnePerturbedStart(t *testing.T) {
	starts := []online.Start{{ID: 3, Time: 10, Wait: 2}, {ID: 7, Time: 10.5}}
	want := fed.AppendOKResp(nil, 10.5, starts)
	if !checkWireReply(want, want, starts, nil) {
		t.Fatal("the exact response must pass")
	}
	// A different clock is not a start mismatch.
	if !checkWireReply(fed.AppendOKResp(nil, 11, starts), want, starts, nil) {
		t.Error("a response with the twin's starts must pass")
	}
	bad := []online.Start{{ID: 3, Time: 10, Wait: 2}, {ID: 7, Time: 10.25}}
	if checkWireReply(fed.AppendOKResp(nil, 10.5, bad), want, starts, nil) {
		t.Error("a perturbed start time passed")
	}
	if checkWireReply(fed.AppendErrResp(nil, 503, true, "draining"), want, starts, nil) {
		t.Error("an error response passed")
	}
}

func TestSelfTimeOnNestedSpans(t *testing.T) {
	// root [0,100): children a [10,40) and b [30,60) overlap; a has a
	// grandchild [15,20); c [90,120) sticks out past the root's end.
	tr := &tracer{limit: 100}
	at := func(ns int64) time.Time { return tr.origin.Add(time.Duration(ns)) }
	root := tr.record("root", at(0), at(100), -1)
	a := tr.record("a", at(10), at(40), root)
	tr.record("g", at(15), at(20), a)
	tr.record("b", at(30), at(60), root)
	tr.record("c", at(90), at(120), root)
	st := selfTimes(tr.spans)
	want := map[string]float64{"root": 100 - 50 - 10, "a": 30 - 5, "g": 5, "b": 30, "c": 30}
	for name, self := range want {
		if got := st[name].SelfS * 1e9; math.Abs(got-self) > 1e-6 {
			t.Errorf("self(%s) = %v ns, want %v", name, got, self)
		}
	}
	if st["root"].TotalS*1e9 != 100 || st["root"].Count != 1 {
		t.Errorf("root totals = %+v", st["root"])
	}
	// Children share their root's request id; a new root starts a new one.
	next := tr.record("next", at(200), at(210), -1)
	for i := root; i < next; i++ {
		if tr.spans[i].req != tr.spans[root].req {
			t.Errorf("span %d has request %d, want its root's %d", i, tr.spans[i].req, tr.spans[root].req)
		}
	}
	if tr.spans[next].req == tr.spans[root].req {
		t.Error("a second root reused the first root's request id")
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	if i := tr.begin("x", -1); i != -1 {
		t.Fatalf("nil tracer begin = %d", i)
	}
	tr.end(-1)
	if i := tr.record("x", time.Now(), time.Now(), -1); i != -1 {
		t.Fatalf("nil tracer record = %d", i)
	}
}

func TestReadResponse(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\r\n{\"started\":[]" +
		"HTTP/1.1 409 Conflict\r\ncontent-length: 24\r\n\r\n{\"error\":\"duplicate id\"}" +
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(raw))
	for _, want := range []struct {
		code int
		body string
	}{{200, `{"started":[]`}, {409, `{"error":"duplicate id"}`}, {200, "hello world"}, {200, ""}} {
		code, body, err := readResponse(br, nil)
		if err != nil {
			t.Fatalf("readResponse: %v", err)
		}
		if code != want.code || string(body) != want.body {
			t.Errorf("got %d %q, want %d %q", code, body, want.code, want.body)
		}
	}
	for _, bad := range []string{
		"HTTP/1.1 200 OK\r\n\r\n",                         // no length
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc", // short body
		"garbage\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
	} {
		if _, _, err := readResponse(bufio.NewReader(strings.NewReader(bad)), nil); err == nil {
			t.Errorf("readResponse(%q) succeeded", bad)
		}
	}
}

func TestSameStatusIgnoresRecoveryProvenance(t *testing.T) {
	pre := []byte(`{"now":5,"queued":3,"per_shard":[{"now":5,"queued":3,"journal_seq":40}]}`)
	post := []byte(`{"now":5,"queued":3,"per_shard":[{"now":5,"queued":3,"journal_seq":12,"recovered":true,"from_snapshot":true,"replayed_records":12,"segments_scanned":1}]}`)
	if same, err := sameStatus(pre, post); err != nil || !same {
		t.Errorf("sameStatus = %v, %v; want true", same, err)
	}
	lost := []byte(`{"now":5,"queued":2,"per_shard":[{"now":5,"queued":2,"recovered":true}]}`)
	if same, _ := sameStatus(pre, lost); same {
		t.Error("a lost job must make the statuses differ")
	}
}
