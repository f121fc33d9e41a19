package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"time"

	"github.com/hpcsched/gensched/internal/online"
)

// httpPlan is a stream pre-encoded for the HTTP/JSON edge: every request
// as the bytes written to the socket and every expected reply body as
// schedd formats it, so the timed loop only writes, reads and compares.
type httpPlan struct {
	st      *stream
	reqs    []byte
	reqOff  []int
	want    []byte
	wantOff []int
}

func planHTTP(st *stream) *httpPlan {
	p := &httpPlan{st: st, reqOff: []int{0}, wantOff: []int{0}}
	var body []byte
	for i, o := range st.ops {
		j := st.jobs[o.idx]
		body = body[:0]
		path := "/v1/complete"
		if o.complete {
			body = append(body, `{"id":`...)
			body = strconv.AppendInt(body, int64(j.ID), 10)
		} else {
			path = "/v1/submit"
			body = append(body, `{"id":`...)
			body = strconv.AppendInt(body, int64(j.ID), 10)
			body = append(body, `,"cores":`...)
			body = strconv.AppendInt(body, int64(j.Cores), 10)
			body = append(body, `,"runtime":`...)
			body = strconv.AppendFloat(body, j.Runtime, 'g', -1, 64)
			body = append(body, `,"estimate":`...)
			body = strconv.AppendFloat(body, j.Estimate, 'g', -1, 64)
			body = append(body, `,"submit":`...)
			body = strconv.AppendFloat(body, j.Submit, 'g', -1, 64)
		}
		body = append(body, `,"now":`...)
		body = strconv.AppendFloat(body, o.now, 'g', -1, 64)
		body = append(body, '}')
		p.reqs = append(p.reqs, "POST "+path+" HTTP/1.1\r\nHost: schedd\r\nContent-Type: application/json\r\nContent-Length: "...)
		p.reqs = strconv.AppendInt(p.reqs, int64(len(body)), 10)
		p.reqs = append(p.reqs, "\r\n\r\n"...)
		p.reqs = append(p.reqs, body...)
		p.reqOff = append(p.reqOff, len(p.reqs))
		p.want = appendWantJSON(p.want, st.startsOf(i), st.clock[i])
		p.wantOff = append(p.wantOff, len(p.want))
	}
	return p
}

// appendWantJSON renders a mutation reply exactly as schedd's
// single-engine server does.
func appendWantJSON(b []byte, starts []online.Start, clock float64) []byte {
	b = append(b, `{"started":[`...)
	for k, st := range starts {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(st.ID), 10)
		b = append(b, `,"time":`...)
		b = strconv.AppendFloat(b, st.Time, 'g', -1, 64)
		b = append(b, `,"wait":`...)
		b = strconv.AppendFloat(b, st.Wait, 'g', -1, 64)
		b = append(b, `,"backfilled":`...)
		b = strconv.AppendBool(b, st.Backfilled)
		b = append(b, '}')
	}
	b = append(b, `],"now":`...)
	b = strconv.AppendFloat(b, clock, 'g', -1, 64)
	return append(b, '}', '\n')
}

// checkJSONReply reports whether an HTTP reply lists exactly the twin's
// starts (id and time, in order). The byte-exact comparison is the fast
// path; any other well-formed reply is decoded and compared by value, so
// a change to the daemon's number formatting is not a mismatch.
func checkJSONReply(code int, body, want []byte, starts []online.Start) bool {
	if code != 200 {
		return false
	}
	if bytes.Equal(body, want) {
		return true
	}
	var r struct {
		Started []struct {
			ID   int     `json:"id"`
			Time float64 `json:"time"`
		} `json:"started"`
	}
	if err := json.Unmarshal(body, &r); err != nil || len(r.Started) != len(starts) {
		return false
	}
	for k, s := range r.Started {
		if s.ID != starts[k].ID || s.Time != starts[k].Time {
			return false
		}
	}
	return true
}

// phase is what one closed-loop pass over a connection measured.
type phase struct {
	attempted, failed int
	events            int           // events acknowledged inside the timed window
	elapsed           time.Duration // the timed window
	lat               []float64     // µs per request, frame or iteration, timed window only
	at                []float64     // train-evaluate: s from the window's start to each iteration's end
	next              int           // first op (HTTP) or frame (binary) not sent
}

func (p *phase) rate() float64 { return float64(p.events) / p.elapsed.Seconds() }

// cycleStats is what one daemon cycle's timed stream measured.
type cycleStats struct{ rate, p50, p90 float64 }

func (p *phase) stats() cycleStats {
	l := sortedCopy(p.lat)
	return cycleStats{p.rate(), percentile(l, 50), percentile(l, 90)}
}

// windows splits the timed stretch into width-second slices and
// returns, per whole slice, the median and p90 of its latencies.
func (p *phase) windows(width float64) (p50, p90 []float64) {
	n := int(p.elapsed.Seconds() / width)
	lats := make([][]float64, n)
	for k, t := range p.at {
		if w := int(t / width); w < n {
			lats[w] = append(lats[w], p.lat[k])
		}
	}
	for _, l := range lats {
		l = sortedCopy(l)
		p50 = append(p50, percentile(l, 50))
		p90 = append(p90, percentile(l, 90))
	}
	return p50, p90
}

// runHTTP drives plan over one keep-alive connection with one request in
// flight, starting at op from. The first warm requests are checked but
// not timed; timing stops after dur or at the end of the stream.
func runHTTP(conn net.Conn, plan *httpPlan, from, warm int, dur time.Duration, tr *tracer) (phase, error) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var body []byte
	ph := phase{lat: make([]float64, 0, 1<<16)}
	var tStart, deadline time.Time
	i := from
	for ; i < len(plan.st.ops); i++ {
		timed := i >= from+warm
		if timed && tStart.IsZero() {
			tStart = time.Now()
			deadline = tStart.Add(dur)
		}
		t0 := time.Now()
		if timed && t0.After(deadline) {
			break
		}
		if _, err := conn.Write(plan.reqs[plan.reqOff[i]:plan.reqOff[i+1]]); err != nil {
			return ph, fmt.Errorf("request %d: %w", i, err)
		}
		// Peek returns once the reply's first bytes are in: the daemon's
		// part ends there and the client's decoding begins.
		if _, err := br.Peek(1); err != nil {
			return ph, fmt.Errorf("reply %d: %w", i, err)
		}
		tArrive := time.Now()
		code, b, err := readResponse(br, body)
		if err != nil {
			return ph, fmt.Errorf("reply %d: %w", i, err)
		}
		body = b
		t1 := time.Now()
		ok := checkJSONReply(code, body, plan.want[plan.wantOff[i]:plan.wantOff[i+1]], plan.st.startsOf(i))
		ph.attempted++
		if !ok {
			ph.failed++
			if ph.failed <= 3 {
				warnf("http reply %d mismatch: status %d body %q want %q", i, code, body,
					plan.want[plan.wantOff[i]:plan.wantOff[i+1]])
			}
		}
		if timed {
			ph.events++
			ph.lat = append(ph.lat, float64(t1.Sub(t0))/1e3)
		}
		if tr != nil && i%traceEvery == 0 {
			t2 := time.Now()
			root := tr.record("client.request", t0, t2, -1)
			tr.record("schedd.http", t0, tArrive, root)
			tr.record("client.decode", tArrive, t1, root)
			tr.record("client.check", t1, t2, root)
		}
	}
	if !tStart.IsZero() {
		ph.elapsed = time.Since(tStart)
	}
	ph.next = i
	return ph, nil
}
