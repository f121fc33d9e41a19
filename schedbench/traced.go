package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	gensched "github.com/hpcsched/gensched"
	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/trainer"
)

// rungOps caps the requests an in-process rung replays.
const rungOps = 200000

// tracedRun is the per-layer run. Whatever the workload, it measures
// every layer: a traced HTTP session, a traced binary session with its
// crash check, a traced pipeline iteration, and in-process rungs that
// replay the same streams one layer at a time. The named workload's
// phase alternates untraced and traced stretches, whose ratio is
// trace.overhead_frac. The spans go to a Chrome trace-event file in
// spanDir.
func tracedRun(cfg *config, rep *report, spanDir string) error {
	tr := newTracer()
	q := cfg.dur / 4
	segs := func(named bool) []segment {
		if named {
			return []segment{{q / 2, false}, {q / 2, true}, {q / 2, false}, {q / 2, true}}
		}
		return []segment{{q, true}}
	}

	// HTTP edge.
	httpSegs := segs(cfg.workload == "http-interactive")
	hplans, err := httpStreams(cfg.seed)
	if err != nil {
		return err
	}
	hs, err := httpSession(cfg, rep, hplans, httpSegs, tr)
	if err != nil {
		return err
	}
	handlerUS := hs.handlerS / hs.handled * 1e6
	rep.set("schedd.http_handler_us", "us", handlerUS)
	rep.set("schedd.http_outside_us", "us", mean(hs.traced.lat)-handlerUS)
	rep.set("schedcore.passes_per_event", "count", hs.passes/float64(hs.opsSent))
	if cfg.workload == "http-interactive" {
		rep.set("trace.overhead_frac", "fraction", hs.untraced.rate()/hs.traced.rate()-1)
	}

	// Binary edge and durability.
	binSegs := segs(cfg.workload == "binary-ingest-durable")
	bplans, err := binaryStreams(cfg.seed)
	if err != nil {
		return err
	}
	bs, err := binarySession(cfg, rep, bplans, binSegs, tr)
	if err != nil {
		return err
	}
	rep.set("durable.recover_s", "s", bs.recoverS)
	if cfg.workload == "binary-ingest-durable" {
		rep.set("trace.overhead_frac", "fraction", bs.untraced.rate()/bs.traced.rate()-1)
	}
	if err := recoverRung(rep, bs.postKill, tr); err != nil {
		return err
	}

	// In-process rungs over the same streams.
	if err := engineRungs(rep, hplans[0].st, tr); err != nil {
		return err
	}
	if err := fedRungs(rep, bplans[0], tr); err != nil {
		return err
	}
	diskNS, err := durableRungs(cfg, rep, bplans[0].st, tr)
	if err != nil {
		return err
	}
	// With frames pipelined, the daemon's time per frame is the wall
	// time per frame, not the round trip (which queues behind the window).
	wallPerFrame := bs.traced.elapsed.Seconds() * 1e6 / float64(len(bs.traced.lat))
	inProcess := float64(frameRecords) * diskNS / 1e3
	rep.set("schedd.binary_outside_us", "us", wallPerFrame-inProcess)

	// The pipeline.
	if err := pipelineRungs(cfg, rep, tr); err != nil {
		return err
	}

	st := selfTimes(tr.spans)
	if req := st["client.request"]; req.Count > 0 {
		own := req.SelfS + st["client.decode"].SelfS + st["client.check"].SelfS
		rep.set("client.self_us_per_req", "us", own/float64(req.Count)*1e6)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	warnf("wrote %d spans to %s", len(tr.spans), path)
	for name, lt := range st {
		if lt.Count > 0 && lt.Count < 100 {
			warnf("  span %-40s n=%d total %.4fs self %.4fs", name, lt.Count, lt.TotalS, lt.SelfS)
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replay applies st.ops[:n] to tw and returns the wall time and heap
// allocations it took. The starts it produced are checked against the
// stream's by count and by sums of ids and times.
func replay(rep *report, name string, st *stream, n int, tw twin) (time.Duration, uint64) {
	n = min(n, len(st.ops))
	var buf []online.Start
	var count int
	var ids, times float64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var err error
	for i := 0; i < n && err == nil; i++ {
		o := st.ops[i]
		j := st.jobs[o.idx]
		if o.complete {
			buf, _, err = tw.complete(o.now, j.ID, buf[:0])
		} else {
			buf, _, err = tw.submit(o.now, j, buf[:0])
		}
		for _, s := range buf {
			count++
			ids += float64(s.ID)
			times += s.Time
		}
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&m1)
	var wantIDs, wantTimes float64
	want := st.starts[:st.off[n]]
	for _, s := range want {
		wantIDs += float64(s.ID)
		wantTimes += s.Time
	}
	rep.check(err == nil && count == len(want) && ids == wantIDs && times == wantTimes,
		"%s rung diverged from the stream (err %v, %d starts, want %d)", name, err, count, len(want))
	return took, m1.Mallocs - m0.Mallocs
}

func perEvent(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// rungReps is how many times each in-process rung replays its stream;
// a rung reports the median.
const rungReps = 3

// medianReplay replays st.ops[:n] rungReps times on fresh twins from
// mk and returns the median ns/event, the allocations of the last
// replay, and the last twin.
func medianReplay(rep *report, name string, st *stream, n int, mk func() (twin, error)) (float64, uint64, twin, error) {
	var ns []float64
	var allocs uint64
	var tw twin
	for r := 0; r < rungReps; r++ {
		var err error
		if tw, err = mk(); err != nil {
			return 0, 0, nil, err
		}
		var took time.Duration
		took, allocs = replay(rep, name, st, n, tw)
		ns = append(ns, perEvent(took, n))
	}
	return median(ns), allocs, tw, nil
}

// engineRungs: online.Scheduler without and with a telemetry sink,
// alternated so that telemetry's cost is a median of paired differences
// and slow drift in machine speed cancels.
func engineRungs(rep *report, st *stream, tr *tracer) error {
	n := min(rungOps, len(st.ops))
	var bare, diff []float64
	var allocs uint64
	for r := 0; r < rungReps; r++ {
		var took [2]time.Duration
		for k, name := range []string{"online", "online+telemetry"} {
			tw, err := newEngineTwin()
			if err != nil {
				return err
			}
			if k == 1 {
				tw.s.SetTelemetry(telemetry.NewSink(4096))
			}
			sp := tr.begin("rung."+name, -1)
			var a uint64
			took[k], a = replay(rep, name, st, n, tw)
			tr.end(sp)
			if k == 0 {
				allocs = a
			}
		}
		bare = append(bare, perEvent(took[0], n))
		diff = append(diff, perEvent(took[1]-took[0], n))
	}
	rep.set("online.ns_per_event", "ns", median(bare))
	rep.set("online.allocs_per_event", "count", float64(allocs)/float64(n))
	rep.set("telemetry.ns_per_event", "ns", median(diff))
	return nil
}

// fedRungs: the in-memory federation, and the wire codec over the
// binary plan's frames.
func fedRungs(rep *report, plan *binPlan, tr *tracer) error {
	st := plan.st
	n := min(rungOps, len(st.ops))
	sp := tr.begin("rung.fed", -1)
	fedNS, _, last, err := medianReplay(rep, "fed", st, n, func() (twin, error) { return newFedTwin(0) })
	tr.end(sp)
	if err != nil {
		return err
	}
	rep.set("fed.ns_per_event", "ns", fedNS)
	submits := 0
	for _, o := range st.ops[:n] {
		if !o.complete {
			submits++
		}
	}
	rep.set("fed.stolen_frac", "fraction", float64(last.(*fedTwin).f.Stolen())/float64(submits))

	// Wire codec: request batches and OK responses, both directions.
	sp = tr.begin("rung.wire", -1)
	frames := 0
	for frames < plan.nframes() && plan.firstOp[frames+1] <= n {
		frames++
	}
	recs := make([][]durable.Record, frames)
	for k := range recs {
		for i := plan.firstOp[k]; i < plan.firstOp[k+1]; i++ {
			recs[k] = append(recs[k], opRecord(st, i))
		}
	}
	records := plan.firstOp[frames]
	var req, resp []byte
	var reqBytes int
	t0 := time.Now()
	for k := 0; k < frames; k++ {
		lo, hi := plan.firstOp[k], plan.firstOp[k+1]
		if req, err = fed.AppendBatchMsg(req[:0], recs[k]); err != nil {
			return err
		}
		reqBytes += len(req) + 4 // plus the frame's length prefix
		resp = fed.AppendOKResp(resp[:0], st.clock[hi-1], st.starts[st.off[lo]:st.off[hi]])
	}
	enc := time.Since(t0)
	var scratch []durable.Record
	var starts []online.Start
	decoded := 0
	t0 = time.Now()
	for k := 0; k < frames; k++ {
		payload := plan.frames[plan.frameOff[k]+4 : plan.frameOff[k+1]]
		if scratch, err = fed.DecodeMsg(payload, scratch[:0]); err != nil {
			return err
		}
		decoded += len(scratch)
		if _, starts, err = fed.DecodeResp(plan.want[plan.wantOff[k]:plan.wantOff[k+1]], starts[:0]); err != nil {
			return err
		}
	}
	dec := time.Since(t0)
	tr.end(sp)
	rep.check(decoded == records, "wire rung decoded %d records, want %d", decoded, records)
	rep.set("wire.encode_ns_per_record", "ns", perEvent(enc, records))
	rep.set("wire.decode_ns_per_record", "ns", perEvent(dec, records))
	rep.set("wire.bytes_per_record", "B", float64(reqBytes)/float64(records))
	return nil
}

func resolvePolicy(name, expr string) (sched.Policy, error) {
	if expr != "" {
		return sched.ParseExpr(name, expr)
	}
	return sched.ByName(name)
}

// openDurableFed opens a durable federation configured like the binary
// workload's daemon, with every shard on fsys.
func openDurableFed(dir string, fsys durable.FS) (*fed.Federation, error) {
	opt, err := twinOptions()
	if err != nil {
		return nil, err
	}
	return fed.Open(fed.Config{Shards: fedShards, ShardCores: shardCores, Opt: opt, Seed: fedSeed},
		fed.DurableConfig{
			Dir: dir, SyncEvery: walSyncEvery, CkptEvery: 31536000, PolicyName: "F1",
			ResolvePolicy: resolvePolicy,
			FS:            func(int) durable.FS { return fsys },
		})
}

// durableRungs replays the binary stream on a durable federation: with
// fsync elided (what a tmpfs data directory costs), alternated with the
// in-memory federation so that the durable layer's cost is a median of
// paired differences, and once with real fsync on the checkout's disk.
// It returns the disk rung's ns/event.
func durableRungs(cfg *config, rep *report, st *stream, tr *tracer) (float64, error) {
	n := min(rungOps, len(st.ops))
	run := func(name string, elide bool) (float64, *countFS, error) {
		dir := filepath.Join(cfg.work, name)
		defer os.RemoveAll(dir)
		cfs := newCountFS(elide)
		sp := tr.begin("rung."+name, -1)
		defer tr.end(sp)
		f, err := openDurableFed(dir, cfs)
		if err != nil {
			return 0, nil, err
		}
		took, _ := replay(rep, name, st, n, &fedTwin{f})
		err = f.Drain()
		rep.check(err == nil, "%s rung drain: %v", name, err)
		return perEvent(took, n), cfs, nil
	}
	var diffs []float64
	var mem *countFS
	for r := 0; r < rungReps; r++ {
		tw, err := newFedTwin(0)
		if err != nil {
			return 0, err
		}
		took, _ := replay(rep, "fed", st, n, tw)
		var memNS float64
		if memNS, mem, err = run("durable-nosync", true); err != nil {
			return 0, err
		}
		diffs = append(diffs, memNS-perEvent(took, n))
	}
	diskNS, disk, err := run("durable-disk", false)
	if err != nil {
		return 0, err
	}
	rep.set("durable.ns_per_event", "ns", median(diffs))
	rep.set("durable.syncs_per_event", "count", float64(mem.syncs)/float64(n))
	rep.set("durable.write_bytes_per_event", "B", float64(mem.writeBytes)/float64(n))
	// Drain checkpoints every shard, so there is always a snapshot.
	rep.check(mem.snaps > 0, "durable rung wrote no snapshot")
	snaps := float64(max(mem.snaps, 1))
	rep.set("durable.snapshot_bytes", "B", float64(mem.snapBytes)/snaps)
	rep.set("durable.snapshot_us", "us", float64(mem.snapTime.Nanoseconds())/1e3/snaps)
	rep.set("durable.fsync_us_disk", "us", float64(disk.syncTime.Nanoseconds())/1e3/float64(disk.syncs))
	return diskNS, nil
}

// recoverRung opens a copy of the directory the binary daemon left at
// its SIGKILL in-process and reports the replay rate.
func recoverRung(rep *report, dir string, tr *tracer) error {
	defer os.RemoveAll(dir)
	sp := tr.begin("rung.recover", -1)
	t0 := time.Now()
	f, err := openDurableFed(dir, durable.OS())
	took := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("recover copy of the killed daemon's directory: %w", err)
	}
	replayed := 0
	for _, h := range f.Health() {
		replayed += h.Replayed
	}
	err = f.Drain()
	rep.check(err == nil, "recover rung drain: %v", err)
	rep.set("durable.recover_records_per_s", "1/s", float64(replayed)/took.Seconds())
	return nil
}

// pipelineRungs runs the train→fit→evaluate pipeline traced (alternated
// with an untraced iteration when it is the named workload), then times
// trainer and sim calls directly.
func pipelineRungs(cfg *config, rep *report, tr *tracer) error {
	restore, err := pinToOneCPU()
	if err != nil {
		return err
	}
	defer restore()
	sp := tr.begin("lublin.build", -1)
	ps, setups, err := evalSetup(cfg.seed)
	tr.end(sp)
	if err != nil {
		return err
	}
	rep.set("lublin.gen_ms", "ms", median(setups)*1e3)
	seed, w := ps[0].seed, ps[0].w
	var plain, traced *iteration
	if cfg.workload == "train-evaluate" {
		if plain, err = runPipeline(seed, w, nil); err != nil {
			return err
		}
	}
	if traced, err = runPipeline(seed, w, tr); err != nil {
		return err
	}
	checkPipeline(rep, seed, traced, traced)
	if plain != nil {
		checkPipeline(rep, seed, traced, plain)
		rep.set("trace.overhead_frac", "fraction", traced.trainS/plain.trainS-1)
	}
	rep.set("trainer.train_s", "s", traced.trainS)
	rep.set("mlfit.fitall_ms", "ms", traced.fitS*1e3)

	rep.set("runner.busy_frac", "fraction", traced.evalCPUS/(traced.evalS*pipelineWorkers))

	// sim: every grid cell, sequentially.
	sp = tr.begin("rung.sim", -1)
	var simTime time.Duration
	var jobs int
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, p := range traced.policies {
		for _, win := range w.Windows {
			t0 := time.Now()
			if _, err := sim.Run(sim.Platform{Cores: evalCores}, win,
				sim.Options{Policy: p, UseEstimates: true, Backfill: sim.BackfillEASY}); err != nil {
				return err
			}
			simTime += time.Since(t0)
			jobs += len(win)
		}
	}
	runtime.ReadMemStats(&m1)
	tr.end(sp)
	rep.set("sim.ns_per_job", "ns", perEvent(simTime, jobs))
	rep.set("sim.allocs_per_job", "count", float64(m1.Mallocs-m0.Mallocs)/float64(jobs))

	// trainer: tuple generation plus its permutation trials.
	sp = tr.begin("rung.trainer", -1)
	var trialTime time.Duration
	trials := 0
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		tuple, err := trainer.GenerateTuple(trainer.DefaultSpec(), gensched.SplitSeed(cfg.seed, uint64(i)))
		if err != nil {
			return err
		}
		if _, err := trainer.ScoreTuple(tuple, trainer.TrialConfig{Trials: trainTrials, Workers: pipelineWorkers, Seed: uint64(i)}); err != nil {
			return err
		}
		trialTime += time.Since(t0)
		trials += trainTrials
	}
	runtime.ReadMemStats(&m1)
	tr.end(sp)
	rep.set("trainer.ns_per_trial", "ns", perEvent(trialTime, trials))
	rep.set("trainer.allocs_per_trial", "count", float64(m1.Mallocs-m0.Mallocs)/float64(trials))
	return nil
}
