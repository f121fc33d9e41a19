package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	gensched "github.com/hpcsched/gensched"
)

// Each daemon workload replays one fixed block of its stream per daemon
// cycle: boot a fresh daemon, stream the block (or until the time budget
// runs out), drain. The work per event therefore does not depend on how
// far into an ever-growing backlog a faster daemon would get.
const (
	setupBoots = 5 // boots before the first cycle; setup_s is the median over every boot

	httpBlockOps = 40000 // requests per HTTP cycle
	httpWarm     = 2000  // requests per cycle checked before timing starts
	httpBlocks   = 4     // distinct blocks per run, cycled through, so one block's quirks average out
	binBlockOps  = 160000
	binWarm      = 32 // frames per cycle checked before timing starts
	// About one binary block in twenty builds a backlog that makes its
	// frames cost twice as much; among eight blocks such a block falls
	// outside the quartiles the run reports.
	binBlocks = 8
)

// segment is a stretch of timed streaming, traced or not, made of as
// many daemon cycles as fit in dur.
type segment struct {
	dur    time.Duration
	traced bool
}

// session is what one daemon workload measured across its cycles, with
// the untraced and traced segments merged separately.
type session struct {
	setups           []float64
	untraced, traced phase
	whole            []cycleStats // untraced cycles that streamed their whole block
	rssMB            float64      // highest VmHWM over the cycles

	// From /metrics, summed over HTTP cycles.
	handlerS, handled float64 // submit+complete handler seconds and requests
	passes            float64 // scheduling passes
	opsSent           int     // requests sent, warm-up included

	recoverS float64 // reboot after SIGKILL to healthy (binary)
	postKill string  // copy of the data directory at the SIGKILL (traced binary)
}

func (ph *phase) merge(o phase) {
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.events += o.events
	ph.elapsed += o.elapsed
	ph.lat = append(ph.lat, o.lat...)
}

func (s *session) add(o phase, traced bool) {
	if traced {
		s.traced.merge(o)
	} else {
		s.untraced.merge(o)
	}
}

// bootDaemons boots schedd setupBoots times on args(k) and drains each
// boot, which must exit 0; the set-up times start the session's list.
func bootDaemons(cfg *config, rep *report, args func(k int) []string) ([]float64, error) {
	var setups []float64
	for k := 0; k < setupBoots; k++ {
		d, took, err := startDaemon(cfg.schedd, func() []string { return args(k) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		err = d.terminate()
		rep.check(err == nil, "set-up boot %d drain: %v", k, err)
	}
	return setups, nil
}

// blockSeed derives block b's stream seed from the run seed.
func blockSeed(seed uint64, b int) uint64 { return gensched.SplitSeed(seed, uint64(b)) }

// httpStreams builds the HTTP workload's blocks: Lublin jobs at
// httpLoad on one 256-core engine, with the engine twin's replies.
func httpStreams(seed uint64) ([]*httpPlan, error) {
	var plans []*httpPlan
	for b := 0; b < httpBlocks; b++ {
		jobs, err := genJobs(blockSeed(seed, b), shardCores, shardCores, httpBlockOps/2+2000, httpLoad)
		if err != nil {
			return nil, err
		}
		tw, err := newEngineTwin()
		if err != nil {
			return nil, err
		}
		st, err := buildStream(jobs, tw, httpBlockOps)
		if err != nil {
			return nil, err
		}
		plans = append(plans, planHTTP(st))
	}
	return plans, nil
}

// binaryStreams builds the binary workload's blocks: Lublin jobs at
// binLoad on the federation's total cores, with the federation
// twin's replies.
func binaryStreams(seed uint64) ([]*binPlan, error) {
	var plans []*binPlan
	for b := 0; b < binBlocks; b++ {
		jobs, err := genJobs(blockSeed(seed, b), shardCores, fedShards*shardCores, binBlockOps/2+5000, binLoad)
		if err != nil {
			return nil, err
		}
		tw, err := newFedTwin(0)
		if err != nil {
			return nil, err
		}
		st, err := buildStream(jobs, tw, binBlockOps)
		if err != nil {
			return nil, err
		}
		p, err := planBinary(st)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// cycles runs the segments, one fresh daemon per cycle. boot starts a
// cycle's daemon and returns the address to stream to and its set-up
// time; stream drives one cycle for at most the given budget. Every
// cycle but the last is drained (exit 0 required) right away; the last
// daemon is returned running, for the workload's final checks.
func cycles(rep *report, s *session, segs []segment, tr *tracer,
	boot func(cycle int) (*daemon, string, time.Duration, error),
	stream func(conn net.Conn, cycle int, budget time.Duration, tr *tracer) (phase, error),
	beforeDrain func(d *daemon) error,
) (*daemon, error) {
	var d *daemon
	cycle := 0
	for _, seg := range segs {
		var t *tracer
		if seg.traced {
			t = tr
		}
		for budget := seg.dur; budget > 0; cycle++ {
			if d != nil {
				err := d.terminate()
				rep.check(err == nil, "cycle %d drain: %v", cycle-1, err)
			}
			var addr string
			var took time.Duration
			var err error
			if d, addr, took, err = boot(cycle); err != nil {
				return nil, err
			}
			s.setups = append(s.setups, took.Seconds())
			ph, err := streamOn(addr, func(conn net.Conn) (phase, error) { return stream(conn, cycle, budget, t) })
			if err != nil {
				d.kill()
				return nil, err
			}
			if ph.events == 0 {
				d.kill()
				return nil, fmt.Errorf("cycle %d acknowledged no events", cycle)
			}
			rep.add(ph)
			s.add(ph, seg.traced)
			if !seg.traced && ph.elapsed < budget { // the block ended before the budget
				s.whole = append(s.whole, ph.stats())
			}
			budget -= ph.elapsed
			rss, err := d.peakRSSMB()
			if err != nil {
				d.kill()
				return nil, err
			}
			s.rssMB = max(s.rssMB, rss)
			if beforeDrain != nil {
				if err := beforeDrain(d); err != nil {
					d.kill()
					return nil, err
				}
			}
		}
	}
	return d, nil
}

func streamOn(addr string, stream func(net.Conn) (phase, error)) (phase, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return phase{}, err
	}
	defer conn.Close()
	return stream(conn)
}

// httpSession runs the single-engine in-memory daemon, one request in
// flight on one keep-alive connection, and reads the daemon's own
// handler time and pass count from /metrics before each drain.
func httpSession(cfg *config, rep *report, plans []*httpPlan, segs []segment, tr *tracer) (*session, error) {
	restore, err := pinToOneCPU()
	if err != nil {
		return nil, err
	}
	defer restore()
	args := func(int) []string { return daemonPolicyArgs }
	setups, err := bootDaemons(cfg, rep, args)
	if err != nil {
		return nil, err
	}
	s := &session{setups: setups}
	d, err := cycles(rep, s, segs, tr,
		func(int) (*daemon, string, time.Duration, error) {
			d, took, err := startDaemon(cfg.schedd, func() []string { return daemonPolicyArgs })
			if err != nil {
				return nil, "", 0, err
			}
			return d, d.addr, took, nil
		},
		func(conn net.Conn, cycle int, budget time.Duration, tr *tracer) (phase, error) {
			ph, err := runHTTP(conn, plans[cycle%len(plans)], 0, httpWarm, budget, tr)
			s.opsSent += ph.next
			return ph, err
		},
		func(d *daemon) error {
			expo, err := d.get("/metrics")
			if err != nil {
				return err
			}
			for _, ep := range []string{"submit", "complete"} {
				sum, ok1 := promValue(expo, `gensched_http_request_duration_seconds_sum{endpoint="`+ep+`"}`)
				n, ok2 := promValue(expo, `gensched_http_request_duration_seconds_count{endpoint="`+ep+`"}`)
				rep.check(ok1 && ok2, "/metrics lacks the %s handler histogram", ep)
				s.handlerS += sum
				s.handled += n
			}
			passes, ok := promValue(expo, "gensched_sched_passes_total")
			rep.check(ok, "/metrics lacks gensched_sched_passes_total")
			s.passes += passes
			return nil
		})
	if err != nil {
		return nil, err
	}
	err = d.terminate()
	rep.check(err == nil, "final drain: %v", err)
	return s, nil
}

// binaryArgs is the durable federated daemon's command line.
func binaryArgs(dataDir, binAddr string) []string {
	return append([]string{"-shards", strconv.Itoa(fedShards), "-data-dir", dataDir,
		"-fsync", strconv.Itoa(walSyncEvery), "-checkpoint-interval", "31536000", "-binary-addr", binAddr}, daemonPolicyArgs...)
}

// binarySession runs the durable federated daemon, each cycle on an
// empty data directory, then checks crash recovery on the last one:
// SIGKILL, reboot on the same directory, /v1/status equal to the
// pre-kill status except recovery provenance, and a drain with exit 0.
func binarySession(cfg *config, rep *report, plans []*binPlan, segs []segment, tr *tracer) (*session, error) {
	restore, err := pinToOneCPU()
	if err != nil {
		return nil, err
	}
	defer restore()
	dirOf := func(k int) string { return filepath.Join(cfg.work, fmt.Sprintf("data-%d", k)) }
	var binAddr string
	args := func(k int) []string {
		// The previous boot's directory, drained by now, and whatever a
		// boot that lost its port left in this one.
		os.RemoveAll(dirOf(k - 1))
		os.RemoveAll(dirOf(k))
		binAddr, _ = freeAddr() // a failed lookup shows as a failed boot
		return binaryArgs(dirOf(k), binAddr)
	}
	setups, err := bootDaemons(cfg, rep, args)
	if err != nil {
		return nil, err
	}
	s := &session{setups: setups}
	var dataDir string
	d, err := cycles(rep, s, segs, tr,
		func(cycle int) (*daemon, string, time.Duration, error) {
			dataDir = dirOf(setupBoots + cycle)
			d, took, err := startDaemon(cfg.schedd, func() []string { return args(setupBoots + cycle) })
			return d, binAddr, took, err
		},
		func(conn net.Conn, cycle int, budget time.Duration, tr *tracer) (phase, error) {
			return runBinary(conn, plans[cycle%len(plans)], 0, binWarm, budget, tr)
		}, nil)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if _, err := streamOn(binAddr, func(conn net.Conn) (phase, error) { return phase{}, sendSyncPadding(conn) }); err != nil {
		return nil, fmt.Errorf("sync padding: %w", err)
	}
	pre, err := d.get("/v1/status")
	if err != nil {
		return nil, err
	}
	d.kill()
	if tr != nil {
		s.postKill = filepath.Join(cfg.work, "postkill")
		if err := copyDir(dataDir, s.postKill); err != nil {
			return nil, err
		}
	}
	took, err := d.exec()
	if err != nil {
		return nil, fmt.Errorf("reboot after SIGKILL: %w", err)
	}
	s.recoverS = took.Seconds()
	post, err := d.get("/v1/status")
	if err != nil {
		return nil, err
	}
	same, err := sameStatus(pre, post)
	if err != nil {
		return nil, err
	}
	rep.check(same, "status after SIGKILL recovery differs:\n pre  %s\n post %s", pre, post)
	err = d.terminate()
	rep.check(err == nil, "drain after recovery: %v", err)
	return s, nil
}

// provenance lists the per-shard /v1/status fields that describe how a
// boot recovered rather than the scheduling state.
var provenance = []string{"journal_seq", "recovered", "from_snapshot", "replayed_records", "segments_scanned"}

// sameStatus compares two /v1/status bodies without recovery provenance.
func sameStatus(a, b []byte) (bool, error) {
	strip := func(body []byte) (map[string]any, error) {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("decode /v1/status: %w", err)
		}
		shards, _ := m["per_shard"].([]any)
		for _, sh := range shards {
			if sm, ok := sh.(map[string]any); ok {
				for _, k := range provenance {
					delete(sm, k)
				}
			}
		}
		return m, nil
	}
	ma, err := strip(a)
	if err != nil {
		return false, err
	}
	mb, err := strip(b)
	if err != nil {
		return false, err
	}
	return reflect.DeepEqual(ma, mb), nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

// logTail logs the sample count and the highest percentile that leaves
// ten samples beyond it.
func logTail(lat []float64) {
	s := sortedCopy(lat)
	if p := tailPercentile(len(s)); p > 0 {
		warnf("latency: %d samples; p%g (highest with >=10 beyond) = %.1f us", len(s), p, percentile(s, p))
	}
}

func timedHTTP(cfg *config, rep *report) error {
	plans, err := httpStreams(cfg.seed)
	if err != nil {
		return err
	}
	s, err := httpSession(cfg, rep, plans, []segment{{dur: cfg.dur}}, nil)
	if err != nil {
		return err
	}
	setDaemonMetrics(rep, s)
	return nil
}

func timedBinary(cfg *config, rep *report) error {
	plans, err := binaryStreams(cfg.seed)
	if err != nil {
		return err
	}
	s, err := binarySession(cfg, rep, plans, []segment{{dur: cfg.dur}}, nil)
	if err != nil {
		return err
	}
	warnf("recovery after SIGKILL took %.4f s", s.recoverS)
	setDaemonMetrics(rep, s)
	return nil
}

func setDaemonMetrics(rep *report, s *session) {
	cycles := s.whole
	if len(cycles) == 0 { // a run too short to stream one whole block
		cycles = []cycleStats{s.untraced.stats()}
	}
	var rates, p50, p90 []float64
	for _, c := range cycles {
		rates = append(rates, c.rate)
		p50 = append(p50, c.p50)
		p90 = append(p90, c.p90)
	}
	warnf("%d whole cycles: events/s %.0f; p50 %.1f; p90 %.1f", len(cycles), rates, p50, p90)
	rep.set("events_per_s", "events/s", lowerQuartile(rates))
	rep.set("latency_p50_us", "us", upperQuartile(p50))
	rep.set("latency_p90_us", "us", upperQuartile(p90))
	logTail(s.untraced.lat)
	rep.set("setup_s", "s", median(s.setups))
	rep.set("rss_peak_mb", "MB", s.rssMB)
}

// pipelineBlocks is how many pipelines, each on its own seed, one
// train-evaluate run cycles through, so that no one seed's learned
// policies and evaluation sequences set the run's figures.
const pipelineBlocks = 4

// pipeline is one block of the train-evaluate workload: its seed, which
// keys the golden table, and its evaluation workload.
type pipeline struct {
	seed uint64
	w    *gensched.Workload
}

// buildPipeline builds block b's evaluation workload on pipeline seed
// pipelineBlocks·seed + b. About one seed in 125 draws a trace with an
// arrival lull that leaves an evaluation window empty; such a seed is
// replaced by one split from it, so that every run seed has a workload.
func buildPipeline(seed uint64, b int) (pipeline, error) {
	p := seed*pipelineBlocks + uint64(b)
	for try := 0; ; try++ {
		w, err := buildEvalWorkload(p)
		if err == nil {
			return pipeline{p, w}, nil
		}
		if try == 3 || !strings.Contains(err.Error(), "arrival lull") {
			return pipeline{}, fmt.Errorf("pipeline seed %d: %w", p, err)
		}
		p = gensched.SplitSeed(p, 1)
	}
}

// evalSetup builds every block's evaluation workload, three times over,
// and returns the time of each build; setup_s is their median.
func evalSetup(seed uint64) ([]pipeline, []float64, error) {
	ps := make([]pipeline, pipelineBlocks)
	var times []float64
	for k := 0; k < 3; k++ {
		for b := range ps {
			t0 := time.Now()
			var err error
			if ps[b], err = buildPipeline(seed, b); err != nil {
				return nil, nil, err
			}
			times = append(times, time.Since(t0).Seconds())
			// Collected between builds, so that no build's time includes
			// collecting the garbage of the one before.
			runtime.GC()
		}
	}
	return ps, times, nil
}

// checkPipeline verifies an iteration against the first one of its
// block and the first one against the golden values recorded for its
// pipeline seed, when there are some.
func checkPipeline(rep *report, seed uint64, first, it *iteration) {
	if it != first {
		rep.check(sameOutputs(first, it), "iteration outputs differ from the first iteration's")
		return
	}
	if g, ok := golden[seed]; ok {
		rep.check(g.matches(it), "pipeline seed %d: learned %q, cells %v differ from the recorded golden values", seed, it.exprs, it.cells)
	} else {
		warnf("no golden values recorded for pipeline seed %d; checking against the reference simulator only. Entry:\n%s",
			seed, goldenLiteral(seed, it))
	}
}

// pipelineWindow is the window, in seconds of timed iterations, over
// which train-evaluate's latency percentiles are taken.
const pipelineWindow = 4.0

func timedPipeline(cfg *config, rep *report) error {
	restore, err := pinToOneCPU()
	if err != nil {
		return err
	}
	defer restore()
	ps, setups, err := evalSetup(cfg.seed)
	if err != nil {
		return err
	}
	// One warm-up iteration, checked but not timed.
	warm, err := runPipeline(ps[0].seed, ps[0].w, nil)
	if err != nil {
		return err
	}
	var (
		its   []*iteration
		ph    phase                               // per iteration: latency and when it ended
		peaks []float64                           // per iteration: peak RSS, MB
		rates = make([][]float64, pipelineBlocks) // per block: evaluation rate per iteration
	)
	for len(its) < pipelineBlocks || ph.elapsed < cfg.dur {
		b := len(its) % pipelineBlocks
		// Outside the timed region, each iteration starts from a
		// collected heap with the freed memory back with the OS, and
		// from a fresh high-water mark: rss_peak_mb is the median
		// iteration's peak. The run's overall peak was set by the
		// set-up or by whichever iteration the collector ran late in,
		// and spread by a third between runs.
		if err := resetPeakRSS(); err != nil {
			return err
		}
		t := time.Now()
		it, err := runPipeline(ps[b].seed, ps[b].w, nil)
		if err != nil {
			return err
		}
		took := time.Since(t)
		peak, err := vmHWM("/proc/self/status")
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		ph.elapsed += took
		ph.lat = append(ph.lat, float64(took)/1e3)
		ph.at = append(ph.at, ph.elapsed.Seconds())
		its = append(its, it)
		rates[b] = append(rates[b], 2*float64(it.evalJobs)/it.evalS)
	}
	// Each block's first iteration is checked against the golden values
	// and the reference simulator, the others against it.
	first := make([]*iteration, pipelineBlocks)
	for i, it := range append([]*iteration{warm}, its...) {
		b := max(i-1, 0) % pipelineBlocks
		if first[b] == nil {
			first[b] = it
		}
		checkPipeline(rep, ps[b].seed, first[b], it)
	}
	for b, p := range ps {
		bad, err := checkAgainstReference(first[b], p.w)
		if err != nil {
			return err
		}
		rep.check(bad == 0, "block %d: %d evaluated sequences differ from the reference simulator", b, bad)
	}
	trains := make([]float64, len(its))
	for i, it := range its {
		trains[i] = it.trainS
	}
	p50, p90 := ph.windows(pipelineWindow)
	if len(p50) == 0 { // a run shorter than one window
		s := sortedCopy(ph.lat)
		p50, p90 = []float64{percentile(s, 50)}, []float64{percentile(s, 90)}
	}
	warnf("%d iterations; train_s median %.4f, eval_s %.4f over %d jobs; per %gs window p50 %.0f p90 %.0f; learned %q",
		len(its), median(trains), its[0].evalS, its[0].evalJobs, pipelineWindow, p50, p90, its[0].exprs)
	// Each block's lower quartile, so that the blocks, which differ in
	// how much a simulated job costs, weigh the same.
	var rate float64
	for _, r := range rates {
		rate += lowerQuartile(r) / pipelineBlocks
	}
	rep.set("events_per_s", "events/s", rate)
	rep.set("latency_p50_us", "us", upperQuartile(p50))
	rep.set("latency_p90_us", "us", upperQuartile(p90))
	rep.set("setup_s", "s", median(setups))
	rep.set("rss_peak_mb", "MB", median(peaks))
	return nil
}
