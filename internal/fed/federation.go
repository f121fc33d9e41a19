// The live federation: N shard schedulers behind one deterministic
// router, with per-shard locks so concurrent daemon requests targeting
// different shards proceed in parallel. Routing decisions are
// serialized under the federation lock — they are the deterministic
// state — while the scheduling work itself runs shard-local.

package fed

import (
	"fmt"
	"sort"
	"sync"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/workload"
)

// Config sizes a Federation.
type Config struct {
	// Shards is the number of shard schedulers (>= 1).
	Shards int
	// ShardCores is each shard's machine size; total federated capacity
	// is Shards × ShardCores, and one job must fit on one shard.
	ShardCores int
	// Opt configures every shard scheduler identically.
	Opt online.Options
	// Seed derives the router's per-shard ring seeds via dist.Split.
	Seed uint64
	// StealFactor tunes the router's least-loaded fallback; <= 0 means
	// the default.
	StealFactor float64
	// TraceBuf, when > 0, attaches a telemetry sink per shard with a
	// decision-trace ring of that capacity.
	TraceBuf int
	// Workers bounds concurrent shard goroutines in fan-out paths
	// (replay, drains); <= 0 means one per shard.
	Workers int
}

// Federation is N shard schedulers behind a deterministic router.
// Methods are safe for concurrent use; requests for different shards
// run concurrently, and the placement state is serialized so that the
// placement stream — and therefore every output — is a pure function of
// the request stream.
type Federation struct {
	cfg    Config
	mu     sync.Mutex // guards router, draining, drainErr
	router *Router
	shards []*shard
	polMu  sync.Mutex // serializes policy fan-outs so swaps never interleave

	// dur is non-nil for a durable federation (Open with a data dir).
	dur      *DurableConfig
	draining bool
	drainErr error
}

// New builds a federation of cfg.Shards identical shard schedulers.
func New(cfg Config) (*Federation, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fed: need at least one shard, got %d", cfg.Shards)
	}
	router, err := NewRouter(cfg.Shards, cfg.ShardCores, cfg.Seed, cfg.Opt.UseEstimates, cfg.StealFactor)
	if err != nil {
		return nil, err
	}
	f := &Federation{cfg: cfg, router: router, shards: make([]*shard, cfg.Shards)}
	for i := range f.shards {
		s, err := online.New(cfg.ShardCores, cfg.Opt)
		if err != nil {
			return nil, err
		}
		f.shards[i] = &shard{}
		f.shards[i].initShard(f, s, durable.InitState{}, "", "")
	}
	return f, nil
}

// Shards returns the shard count.
func (f *Federation) Shards() int { return f.cfg.Shards }

// ShardCores returns each shard's machine size.
func (f *Federation) ShardCores() int { return f.cfg.ShardCores }

// Stolen returns how many placements the router diverted off their
// hash-primary shard.
func (f *Federation) Stolen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.router.Stolen()
}

// Submit routes and submits one job at time now, returning the shard it
// landed on, the jobs that scheduling pass started (appended to buf, so
// callers can pool), and the owning shard's clock after the pass. On a
// scheduler rejection the placement is released, leaving the router as
// if the request never happened.
func (f *Federation) Submit(now float64, j workload.Job, buf []online.Start) (shardIdx int, starts []online.Start, clock float64, err error) {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return 0, buf, 0, ErrDraining
	}
	shardIdx, err = f.router.Place(now, j)
	f.mu.Unlock()
	if err != nil {
		return 0, buf, 0, err
	}
	starts, clock, err = f.mutate(shardIdx, &durable.Record{Op: durable.OpSubmit, Now: now, Job: j}, nil, buf)
	// A journal failure is reported after the fact: the job IS placed and
	// queued in memory (the placement stands), it just is not durable —
	// the fatal condition ShardBrokenError describes. Any other failure
	// refused the job, so the router forgets the placement.
	if err != nil && !isBroken(err) {
		f.mu.Lock()
		f.router.Release(j.ID)
		f.mu.Unlock()
	}
	return shardIdx, starts, clock, err
}

// Complete reports a completion at time now to the shard the job was
// placed on.
func (f *Federation) Complete(now float64, id int, buf []online.Start) (starts []online.Start, clock float64, err error) {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return buf, 0, ErrDraining
	}
	shardIdx, ok := f.router.Locate(id)
	f.mu.Unlock()
	if !ok {
		return buf, 0, fmt.Errorf("fed: job %d is not active on any shard", id)
	}
	starts, clock, err = f.mutate(shardIdx, &durable.Record{Op: durable.OpComplete, Now: now, ID: id}, nil, buf)
	// The completion applied in memory unless the shard refused it;
	// release the placement, and on a journal failure report the latch.
	if err == nil || isBroken(err) {
		f.mu.Lock()
		f.router.Release(id)
		f.mu.Unlock()
	}
	return starts, clock, err
}

// AdvanceTo moves every shard's clock forward to now (clamped per shard
// so no clock moves backward) and returns the merged starts, ordered by
// (time, shard, per-shard pass order). clock is the maximum shard clock
// after the advance.
func (f *Federation) AdvanceTo(now float64, buf []online.Start) (starts []online.Start, clock float64, err error) {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return buf, 0, ErrDraining
	}
	f.mu.Unlock()
	starts = buf
	for i := range f.shards {
		// The unclamped request time is journaled; apply clamps against
		// the shard clock, live and in replay alike.
		var c float64
		starts, c, err = f.mutate(i, &durable.Record{Op: durable.OpAdvance, Now: now}, nil, starts)
		if err != nil && isDown(err) {
			// A latched shard is frozen: advancing its clock in memory
			// without a journal record would diverge its durable state.
			continue
		}
		if c > clock {
			clock = c
		}
		if err != nil {
			return starts, clock, err
		}
	}
	// Shards were drained in ascending order, so a stable sort by time
	// yields the (time, shard, pass order) merge order.
	sort.SliceStable(starts, func(i, j int) bool { return starts[i].Time < starts[j].Time })
	return starts, clock, nil
}

// SetPolicyNamed hot-swaps the queue policy on every shard, in shard
// order, journaling the swap per shard by its (name, expr) descriptor —
// the form a snapshot or a replay rebuilds it from. It refuses unless
// every shard is healthy: a policy that lands on a strict subset of
// shards would make the federation's placement-to-schedule mapping
// depend on which shard failed when.
func (f *Federation) SetPolicyNamed(p sched.Policy, name, expr string) error {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return ErrDraining
	}
	if h := f.router.Healthy(); h < f.cfg.Shards {
		f.mu.Unlock()
		return fmt.Errorf("fed: refusing policy swap with %d/%d shards quarantined", f.cfg.Shards-h, f.cfg.Shards)
	}
	f.mu.Unlock()
	f.polMu.Lock()
	defer f.polMu.Unlock()
	for i := range f.shards {
		if _, _, err := f.mutate(i, &durable.Record{Op: durable.OpPolicy, Name: name, Expr: expr}, p, nil); err != nil {
			return err
		}
	}
	return nil
}

// Clock returns the maximum shard clock.
func (f *Federation) Clock() float64 {
	var c float64
	for _, sh := range f.shards {
		sh.mu.Lock()
		if n := sh.s.Clock(); n > c {
			c = n
		}
		sh.mu.Unlock()
	}
	return c
}

// Status is the merged federation view plus the per-shard snapshots.
type Status struct {
	Now       float64         // maximum shard clock
	Shards    int             //
	Cores     int             // total federated cores
	FreeCores int             //
	Queued    int             //
	Running   int             //
	Submitted int             //
	Completed int             //
	Stolen    int             // placements diverted by the load fallback
	Policy    string          //
	PerShard  []online.Status // indexed by shard
	Err       error           // the lowest shard's invariant violation (with Opt.Check)
}

// Status snapshots every shard and merges, in shard order.
func (f *Federation) Status() Status {
	st := Status{Shards: f.cfg.Shards, Stolen: f.Stolen()}
	st.PerShard = make([]online.Status, f.cfg.Shards)
	for i, sh := range f.shards {
		sh.mu.Lock()
		s := sh.s.Status()
		if st.Err == nil {
			st.Err = sh.s.Err()
		}
		sh.mu.Unlock()
		st.PerShard[i] = s
		if s.Now > st.Now {
			st.Now = s.Now
		}
		st.Cores += s.Cores
		st.FreeCores += s.FreeCores
		st.Queued += s.Queued
		st.Running += s.Running
		st.Submitted += s.Submitted
		st.Completed += s.Completed
		st.Policy = s.Policy
	}
	return st
}

// Metrics merges per-shard metrics in shard order: counts sum, means
// weight by each shard's completed jobs, maxima take the max, the queue
// high-water takes the max (shards queue independently), and
// utilization averages over shards (equal-size machines).
func (f *Federation) Metrics() (online.Metrics, []online.Metrics) {
	per := make([]online.Metrics, f.cfg.Shards)
	for i, sh := range f.shards {
		sh.mu.Lock()
		per[i] = sh.s.Metrics()
		sh.mu.Unlock()
	}
	return MergeMetrics(per), per
}

// MergeMetrics folds per-shard metrics into one aggregate, in slice
// order (deterministic for a deterministic input order).
func MergeMetrics(per []online.Metrics) online.Metrics {
	var m online.Metrics
	var sumB, sumW, sumU float64
	for _, p := range per {
		m.Submitted += p.Submitted
		m.Completed += p.Completed
		m.Backfilled += p.Backfilled
		if p.MaxQueueLen > m.MaxQueueLen {
			m.MaxQueueLen = p.MaxQueueLen
		}
		if p.MaxBSLD > m.MaxBSLD {
			m.MaxBSLD = p.MaxBSLD
		}
		if p.MaxWait > m.MaxWait {
			m.MaxWait = p.MaxWait
		}
		sumB += p.AveBsld * float64(p.Completed)
		sumW += p.MeanWait * float64(p.Completed)
		sumU += p.Utilization
	}
	if m.Completed > 0 {
		m.AveBsld = sumB / float64(m.Completed)
		m.MeanWait = sumW / float64(m.Completed)
	}
	if len(per) > 0 {
		m.Utilization = sumU / float64(len(per))
	}
	return m
}

// MergedSink folds every shard's counters and histograms, journal
// counters included, into one sink (traces excluded — see MergedTrace).
// Nil when telemetry is off.
func (f *Federation) MergedSink() *telemetry.Sink {
	if f.cfg.TraceBuf <= 0 {
		return nil
	}
	m := &telemetry.Sink{}
	for _, sh := range f.shards {
		sh.mu.Lock()
		m.Merge(sh.tel)
		m.Merge(sh.wal)
		sh.mu.Unlock()
	}
	return m
}

// TraceCounts sums every shard's decision-trace counters: events
// recorded, and events overwritten before export.
func (f *Federation) TraceCounts() (total, dropped uint64) {
	for _, sh := range f.shards {
		sh.mu.Lock()
		if sh.tel != nil {
			total += sh.tel.Trace.Total()
			dropped += sh.tel.Trace.Dropped()
		}
		sh.mu.Unlock()
	}
	return total, dropped
}

// ShardSink returns shard i's sink (nil when telemetry is off). The
// caller must not mutate it; reads of a live federation race unless the
// shard is quiesced.
func (f *Federation) ShardSink(i int) *telemetry.Sink { return f.shards[i].tel }

// ShardEvent is a trace event tagged with the shard that recorded it.
type ShardEvent struct {
	Shard int
	Event telemetry.Event
}

// MergedTrace exports the federation's decision trace: per-shard rings
// sampled by sequence (sample > 1 keeps seq % sample == 0, per shard),
// merged into the total order (clock, shard, seq), with limit > 0
// capping to the most recent events AFTER sampling and merging — the
// same sample-then-limit order the single-scheduler /v1/trace endpoint
// documents.
func (f *Federation) MergedTrace(sample, limit int) []ShardEvent {
	if f.cfg.TraceBuf <= 0 {
		return nil
	}
	var out []ShardEvent
	for i, sh := range f.shards {
		sh.mu.Lock()
		evs := sh.tel.Trace.Events(sample, 0)
		sh.mu.Unlock()
		for _, e := range evs {
			out = append(out, ShardEvent{Shard: i, Event: e})
		}
	}
	out = sortShardEvents(out)
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// sortShardEvents establishes the canonical merged order: (clock,
// shard, seq). The input must hold each shard's events contiguously in
// seq order with shards ascending — which every producer in this
// package does — so a stable sort by time alone completes the order.
func sortShardEvents(evs []ShardEvent) []ShardEvent {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Event.Time < evs[j].Event.Time })
	return evs
}
