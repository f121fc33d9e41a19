package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"time"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/workload"
)

const (
	frameRecords = 64    // records per batch frame
	frameWindow  = 4     // frames in flight on the connection
	walSyncEvery = 65536 // the daemon's -fsync: records per fsync batch, per shard
)

// fedTwin replays the stream on an in-memory federation built like the
// daemon's -shards 4 engine.
type fedTwin struct{ f *fed.Federation }

func newFedTwin(traceBuf int) (*fedTwin, error) {
	opt, err := twinOptions()
	if err != nil {
		return nil, err
	}
	f, err := fed.New(fed.Config{Shards: fedShards, ShardCores: shardCores, Opt: opt, Seed: fedSeed, TraceBuf: traceBuf})
	if err != nil {
		return nil, err
	}
	return &fedTwin{f}, nil
}

func (t *fedTwin) submit(now float64, j workload.Job, buf []online.Start) ([]online.Start, float64, error) {
	_, st, clock, err := t.f.Submit(now, j, buf)
	return st, clock, err
}

func (t *fedTwin) complete(now float64, id int, buf []online.Start) ([]online.Start, float64, error) {
	return t.f.Complete(now, id, buf)
}

// binPlan is a stream pre-encoded as batch frames, with each frame's
// expected response payload.
type binPlan struct {
	st       *stream
	frames   []byte
	frameOff []int
	want     []byte
	wantOff  []int
	firstOp  []int // frame k carries ops firstOp[k]:firstOp[k+1]
}

// opRecord is the wire record for one stream op.
func opRecord(st *stream, i int) durable.Record {
	o := st.ops[i]
	j := st.jobs[o.idx]
	if o.complete {
		return durable.Record{Op: durable.OpComplete, Now: o.now, ID: j.ID}
	}
	return durable.Record{Op: durable.OpSubmit, Now: o.now, Job: j}
}

func planBinary(st *stream) (*binPlan, error) {
	p := &binPlan{st: st, frameOff: []int{0}, wantOff: []int{0}, firstOp: []int{0}}
	var recs []durable.Record
	var payload []byte
	for lo := 0; lo < len(st.ops); lo += frameRecords {
		hi := min(lo+frameRecords, len(st.ops))
		recs = recs[:0]
		for i := lo; i < hi; i++ {
			recs = append(recs, opRecord(st, i))
		}
		var err error
		payload, err = fed.AppendBatchMsg(payload[:0], recs)
		if err != nil {
			return nil, err
		}
		p.frames = fed.AppendFrame(p.frames, payload)
		p.frameOff = append(p.frameOff, len(p.frames))
		p.want = fed.AppendOKResp(p.want, st.clock[hi-1], st.starts[st.off[lo]:st.off[hi]])
		p.wantOff = append(p.wantOff, len(p.want))
		p.firstOp = append(p.firstOp, hi)
	}
	return p, nil
}

func (p *binPlan) nframes() int { return len(p.frameOff) - 1 }

// checkWireReply reports whether a response payload lists exactly the
// twin's starts for the frame. Byte equality is the fast path; any other
// payload is decoded with the wire codec and compared by id and time.
func checkWireReply(payload, want []byte, starts []online.Start, scratch []online.Start) bool {
	if bytes.Equal(payload, want) {
		return true
	}
	_, got, err := fed.DecodeResp(payload, scratch[:0])
	if err != nil || len(got) != len(starts) {
		return false
	}
	for k := range got {
		if got[k].ID != starts[k].ID || got[k].Time != starts[k].Time {
			return false
		}
	}
	return true
}

// runBinary streams frames from frame `from` with frameWindow frames in
// flight on one connection. The first warm frames are checked but not
// timed; no new frame is sent once dur has passed, and the frames in
// flight are drained before it returns. Latency is per frame, from its
// write to its decoded response.
func runBinary(conn net.Conn, plan *binPlan, from, warm int, dur time.Duration, tr *tracer) (phase, error) {
	br := bufio.NewReaderSize(conn, 256<<10)
	var (
		frame   []byte
		scratch []online.Start
		sentAt  = make([]time.Time, frameWindow)
		ph      = phase{lat: make([]float64, 0, 1<<14)}
		tStart  time.Time
		stop    bool
	)
	next, done := from, from
	timedFrom := from + warm
	for done < next || (!stop && next < plan.nframes()) {
		// Fill the window.
		for !stop && next < plan.nframes() && next-done < frameWindow {
			if next == timedFrom {
				tStart = time.Now()
			}
			if !tStart.IsZero() && time.Since(tStart) > dur {
				stop = true
				break
			}
			sentAt[next%frameWindow] = time.Now()
			if _, err := conn.Write(plan.frames[plan.frameOff[next]:plan.frameOff[next+1]]); err != nil {
				return ph, fmt.Errorf("frame %d: %w", next, err)
			}
			next++
		}
		if done == next {
			break
		}
		payload, err := fed.ReadFrame(br, frame)
		if err != nil {
			return ph, fmt.Errorf("response to frame %d: %w", done, err)
		}
		frame = payload
		t1 := time.Now()
		lo, hi := plan.firstOp[done], plan.firstOp[done+1]
		starts := plan.st.starts[plan.st.off[lo]:plan.st.off[hi]]
		ok := checkWireReply(payload, plan.want[plan.wantOff[done]:plan.wantOff[done+1]], starts, scratch)
		ph.attempted++
		if !ok {
			ph.failed++
			if ph.failed <= 3 {
				warnf("binary response to frame %d does not match the twin (%d bytes)", done, len(payload))
			}
		}
		t0 := sentAt[done%frameWindow]
		if done >= timedFrom {
			ph.events += hi - lo
			ph.lat = append(ph.lat, float64(t1.Sub(t0))/1e3)
		}
		if tr != nil && done%traceEvery == 0 {
			t2 := time.Now()
			root := tr.record("client.frame", t0, t2, -1)
			tr.record("schedd.binary", t0, t1, root)
			tr.record("client.check_frame", t1, t2, root)
		}
		done++
	}
	if !tStart.IsZero() {
		ph.elapsed = time.Since(tStart)
	}
	ph.next = done
	return ph, nil
}

// sendSyncPadding sends walSyncEvery clock advances to time 0, one
// frame at a time. An advance is journaled on every shard but cannot
// move a shard's clock backward, so each is a no-op record that carries
// every shard past an fsync batch boundary: every earlier record is on
// disk, and only no-op records can be lost to a SIGKILL.
func sendSyncPadding(conn net.Conn) error {
	recs := make([]durable.Record, frameRecords)
	for i := range recs {
		recs[i] = durable.Record{Op: durable.OpAdvance, Now: 0}
	}
	payload, err := fed.AppendBatchMsg(nil, recs)
	if err != nil {
		return err
	}
	frame := fed.AppendFrame(nil, payload)
	br := bufio.NewReader(conn)
	for sent := 0; sent < walSyncEvery; sent += frameRecords {
		if _, err := conn.Write(frame); err != nil {
			return err
		}
		resp, err := fed.ReadFrame(br, nil)
		if err != nil {
			return err
		}
		_, starts, err := fed.DecodeResp(resp, nil)
		if err != nil {
			return err
		}
		if len(starts) != 0 {
			return fmt.Errorf("sync padding started %d jobs", len(starts))
		}
	}
	return nil
}
