package main

import (
	"fmt"

	"github.com/hpcsched/gensched/internal/lublin"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/tsafrir"
	"github.com/hpcsched/gensched/internal/workload"
)

// The daemon configuration both daemon workloads share, and the twin's
// equivalent options: F1 with EASY backfilling on user estimates.
const (
	shardCores = 256
	fedShards  = 4
	fedSeed    = 1 // schedd's -fed-seed default

	// Offered loads. At 0.9 one engine's backlog stays in the tens within
	// a block; the federation's grows without bound at 0.9 (one job must
	// fit one 256-core shard, so its 1,024 cores pack worse than one
	// machine), and at 0.7 it stays under ~200 jobs.
	httpLoad = 0.9
	binLoad  = 0.7
)

var daemonPolicyArgs = []string{"-cores", "256", "-policy", "F1", "-backfill", "easy", "-estimates"}

func twinOptions() (online.Options, error) {
	p, err := sched.ByName("F1")
	if err != nil {
		return online.Options{}, err
	}
	return online.Options{Policy: p, UseEstimates: true, Backfill: sim.BackfillEASY}, nil
}

// genJobs draws n Lublin jobs for a genCores-core machine, rescales
// arrivals to the offered load on loadCores cores and applies Tsafrir
// estimates — everything a pure function of seed.
func genJobs(seed uint64, genCores, loadCores, n int, load float64) ([]workload.Job, error) {
	gen, err := lublin.NewGenerator(lublin.DefaultParams(genCores), genCores, seed)
	if err != nil {
		return nil, err
	}
	jobs := gen.Jobs(n)
	lublin.CalibrateLoad(jobs, loadCores, load)
	if err := tsafrir.Apply(tsafrir.Default(), jobs, seed+1); err != nil {
		return nil, err
	}
	for i := range jobs {
		if jobs[i].ID != i+1 {
			return nil, fmt.Errorf("lublin: job %d has id %d, want %d", i, jobs[i].ID, i+1)
		}
	}
	return jobs, nil
}

// op is one request of the stream: a submit of job idx at its arrival,
// or the completion of job idx at start + runtime.
type op struct {
	complete bool
	idx      int32
	now      float64
}

// twin is the in-process replica a daemon must agree with. Both methods
// return the starts the request's scheduling pass made (copied, owned by
// the caller's buffer) and the clock the daemon reports after it.
type twin interface {
	submit(now float64, j workload.Job, buf []online.Start) ([]online.Start, float64, error)
	complete(now float64, id int, buf []online.Start) ([]online.Start, float64, error)
}

// stream is a request sequence with the twin's expected starts.
type stream struct {
	jobs   []workload.Job
	ops    []op
	starts []online.Start // all expected starts, in request order
	off    []int32        // ops[i]'s starts are starts[off[i]:off[i+1]]
	clock  []float64      // the clock the daemon reports after ops[i]
}

func (s *stream) startsOf(i int) []online.Start { return s.starts[s.off[i]:s.off[i+1]] }

// buildStream runs the event loop that a resource manager would: pop the
// next arrival or completion from an event heap, apply it to the twin,
// and schedule each started job's completion at start + runtime. It
// stops after maxOps requests or when every job has completed.
func buildStream(jobs []workload.Job, tw twin, maxOps int) (*stream, error) {
	s := &stream{jobs: jobs, off: []int32{0}}
	var h schedcore.EventHeap
	for i := range jobs {
		h.Push(schedcore.Event{Time: jobs[i].Submit, Kind: schedcore.KindArrival, Ref: i})
	}
	var err error
	for h.Len() > 0 && len(s.ops) < maxOps {
		ev := h.Pop()
		o := op{complete: ev.Kind == schedcore.KindCompletion, idx: int32(ev.Ref), now: ev.Time}
		before := len(s.starts)
		var clock float64
		if o.complete {
			s.starts, clock, err = tw.complete(o.now, jobs[o.idx].ID, s.starts)
		} else {
			s.starts, clock, err = tw.submit(o.now, jobs[o.idx], s.starts)
		}
		if err != nil {
			return nil, fmt.Errorf("twin request %d: %w", len(s.ops), err)
		}
		for _, st := range s.starts[before:] {
			j := st.ID - 1
			h.Push(schedcore.Event{Time: st.Time + jobs[j].Runtime, Kind: schedcore.KindCompletion, Ref: j})
		}
		s.ops = append(s.ops, o)
		s.off = append(s.off, int32(len(s.starts)))
		s.clock = append(s.clock, clock)
	}
	return s, nil
}

// engineTwin replays the stream on one online.Scheduler, the way the
// single-engine daemon applies /v1/submit and /v1/complete.
type engineTwin struct{ s *online.Scheduler }

func newEngineTwin() (*engineTwin, error) {
	opt, err := twinOptions()
	if err != nil {
		return nil, err
	}
	s, err := online.New(shardCores, opt)
	if err != nil {
		return nil, err
	}
	return &engineTwin{s}, nil
}

func (t *engineTwin) submit(now float64, j workload.Job, buf []online.Start) ([]online.Start, float64, error) {
	st, err := t.s.SubmitAt(now, j)
	return append(buf, st...), t.s.Clock(), err
}

func (t *engineTwin) complete(now float64, id int, buf []online.Start) ([]online.Start, float64, error) {
	st, err := t.s.CompleteAt(now, id)
	return append(buf, st...), t.s.Clock(), err
}
