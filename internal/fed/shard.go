// One shard: an engine, its lock, its telemetry, its journal and its
// adaptive retraining loop. Every mutation a shard accepts flows
// through shard.apply — live (request → mutate → apply → journal) and
// at boot (snapshot restore → journal replay → apply) — so replay
// reconstructs the pre-crash state bit-identically, re-deriving every
// start, routing mirror, adaptation round and promotion instead of
// reading them from disk.

package fed

import (
	"errors"
	"fmt"
	"sync"

	"github.com/hpcsched/gensched/internal/adaptive"
	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/workload"
)

// ErrBadAdapt marks an adapt-start config the adaptive package refused
// (no interval, no cores): the request is wrong, not the state.
var ErrBadAdapt = errors.New("fed: invalid adaptive-loop config")

// shard is one engine plus its lock, sinks and (in a durable
// federation) its journal. Everything here is shard-owned single-writer
// state: every interaction happens under mu, and the supervisor's
// goroutines touch one shard each.
type shard struct {
	mu  sync.Mutex
	s   *online.Scheduler
	tel *telemetry.Sink // scheduler + adaptive loop, with the trace ring
	wal *telemetry.Sink // journal counters only: no trace ring

	// The attached adaptive loop, if any: its journaled sizing (carried
	// into snapshots) and its last failure (reported, never fatal).
	ad    *adaptive.Controller
	adCfg *durable.AdaptConfig
	adErr error

	// Durability (nil/zero in a non-durable federation). storeErr latches
	// the first journaling failure; the shard is quarantined in the
	// router at the same moment and never serves a mutation again.
	store       *durable.Store
	storeErr    error
	storeClosed bool
	health      ShardHealth // recovery provenance (static after Open)
	init        durable.InitState
	policyName  string
	policyExpr  string
	lastCkpt    float64

	// Journal-order mirrors of the router's per-shard state: vt is the
	// fluid clock, stolenOnto the steal attribution, both advanced as
	// each placement applies under mu so the shard's snapshot reflects
	// exactly the placements its journal holds — never a placement
	// still in flight.
	vt         float64
	stolenOnto int
}

// initShard wires a shard's scheduler, telemetry sink and descriptors.
// The sink attaches before any replay so a recovered shard's trace ring
// is re-derived record by record, exactly as the live shard built it.
func (sh *shard) initShard(f *Federation, s *online.Scheduler, init durable.InitState, polName, polExpr string) {
	sh.s = s
	sh.init = init
	sh.policyName, sh.policyExpr = polName, polExpr
	if f.cfg.TraceBuf > 0 {
		sh.tel = telemetry.NewSink(f.cfg.TraceBuf)
		s.SetTelemetry(sh.tel)
	}
}

// apply executes one mutation record against shard i. Called with
// sh.mu held. OpPolicy swaps to p when the caller resolved it already
// (a live swap) and resolves the journaled descriptor otherwise
// (replay). On error the shard is as if the record never arrived: the
// online composite operations restore the clock, and nothing else has
// moved yet. Adaptation rounds ride on the operations that move the
// clock, exactly as they do live.
func (sh *shard) apply(f *Federation, i int, rec *durable.Record, p sched.Policy) ([]online.Start, error) {
	var starts []online.Start
	var err error
	switch rec.Op {
	case durable.OpSubmit:
		if starts, err = sh.s.SubmitAt(rec.Now, rec.Job); err != nil {
			return nil, err
		}
		sh.noteSubmitMirror(f, i, rec.Now, rec.Job)
		if sh.ad != nil {
			j := rec.Job
			if j.Submit == 0 {
				j.Submit = sh.s.Clock() // the stamp SubmitAt applied
			}
			sh.ad.Observe(j)
		}
	case durable.OpComplete:
		starts, err = sh.s.CompleteAt(rec.Now, rec.ID)
	case durable.OpAdvance:
		t := rec.Now
		if c := sh.s.Clock(); t < c {
			t = c // the logical clock never moves backward
		}
		starts, err = sh.s.AdvanceTo(t)
	case durable.OpPolicy:
		if p == nil {
			if p, err = f.dur.ResolvePolicy(rec.Name, rec.Expr); err != nil {
				return nil, err
			}
		}
		if err := sh.s.SetPolicy(p); err != nil {
			return nil, err
		}
		sh.policyName, sh.policyExpr = rec.Name, rec.Expr
		return nil, nil
	case durable.OpAdaptStart:
		return nil, sh.startAdapt(f, rec.Adapt, nil)
	case durable.OpAdaptStop:
		sh.ad, sh.adCfg = nil, nil
		return nil, nil
	default:
		return nil, fmt.Errorf("unexpected journal op %v", rec.Op)
	}
	if err != nil {
		return nil, err
	}
	sh.adaptStep()
	return starts, nil
}

// mutate runs one record through shard i's live path under its lock:
// quarantine gate, apply, journal, checkpoint cadence. The starts are
// copied out of the scheduler's scratch onto buf; clock is the shard
// clock afterwards. A *ShardBrokenError means the record applied but
// did not reach the journal; any other error means it did not apply.
func (f *Federation) mutate(i int, rec *durable.Record, p sched.Policy, buf []online.Start) ([]online.Start, float64, error) {
	sh := f.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The shard may have latched or drained since the caller routed
	// here; a quarantined or closed shard never serves a mutation.
	if sh.storeErr != nil {
		return buf, sh.s.Clock(), &ShardDownError{Shard: i}
	}
	if sh.storeClosed {
		return buf, sh.s.Clock(), ErrDraining
	}
	st, err := sh.apply(f, i, rec, p)
	buf = append(buf, st...)
	if err == nil {
		err = f.journalLocked(sh, i, rec)
	}
	return buf, sh.s.Clock(), err
}

// isBroken reports a mutation that applied but missed the journal;
// isDown one a quarantined shard refused. Out of line, so the error
// target escapes to the heap only on the error path.
func isBroken(err error) bool {
	var broken *ShardBrokenError
	return errors.As(err, &broken)
}

func isDown(err error) bool {
	var down *ShardDownError
	return errors.As(err, &down)
}

// noteSubmitMirror advances the shard-local routing mirrors for one
// applied placement. Primary and Occupancy are pure lookups on router
// construction state (the ring is immutable), safe under sh.mu without
// the federation lock.
func (sh *shard) noteSubmitMirror(f *Federation, i int, now float64, j workload.Job) {
	if i != f.router.Primary(j.ID) {
		sh.stolenOnto++
	}
	if sh.vt < now {
		sh.vt = now
	}
	sh.vt += f.router.Occupancy(j)
}

// startAdapt attaches the adaptive loop ac describes, fresh or (with st)
// restored from a snapshot. The loop is shard-local: with more than one
// shard a promotion would swap one shard's policy only, so a federation
// refuses it until a federation-wide controller exists.
func (sh *shard) startAdapt(f *Federation, ac *durable.AdaptConfig, st *adaptive.ControllerState) error {
	if f.cfg.Shards != 1 {
		return fmt.Errorf("fed: the adaptive loop needs a single shard, not %d", f.cfg.Shards)
	}
	if ac == nil {
		return fmt.Errorf("adapt-start record without config")
	}
	if sh.ad != nil {
		return fmt.Errorf("adaptive loop already running; stop it first")
	}
	opt := sh.s.Options()
	cfg := adaptive.Config{
		Cores:         f.cfg.ShardCores,
		Now:           sh.s.Clock(),
		Backfill:      opt.Backfill,
		BackfillOrder: opt.BackfillOrder,
		UseEstimates:  opt.UseEstimates,
		Tau:           opt.Tau,
		Window:        ac.Window,
		MinWindow:     ac.MinWindow,
		Interval:      ac.Interval,
		MinDrift:      ac.MinDrift,
		SSize:         ac.SSize,
		QSize:         ac.QSize,
		Tuples:        ac.Tuples,
		Trials:        ac.Trials,
		TopK:          ac.TopK,
		Margin:        ac.Margin,
		Cooldown:      ac.Cooldown,
		Workers:       ac.Workers,
		Seed:          ac.Seed,
		Queue:         sh.s.QueuedJobs, // runs inside adaptStep, under sh.mu
		Telemetry:     sh.tel,
	}
	var ctrl *adaptive.Controller
	var err error
	if st != nil {
		ctrl, err = adaptive.Restore(cfg, st)
	} else if ctrl, err = adaptive.New(cfg); err != nil {
		err = fmt.Errorf("%w: %v", ErrBadAdapt, err)
	}
	if err != nil {
		return err
	}
	c := *ac
	sh.ad, sh.adCfg, sh.adErr = ctrl, &c, nil
	return nil
}

// adaptStep runs any adaptation round due at the shard clock and
// applies its promotion. Called with sh.mu held after a clock-moving
// mutation applied. Loop errors are recorded for AdaptStatus rather
// than failing the request that happened to trigger the round.
func (sh *shard) adaptStep() {
	if sh.ad == nil {
		return
	}
	d, err := sh.ad.Tick(sh.s.Clock(), sh.s.Policy())
	if err != nil {
		sh.adErr = err
		sh.ad, sh.adCfg = nil, nil // a broken loop must not re-fail every request
		return
	}
	if d != nil && d.Promoted {
		if err := sh.s.SetPolicy(d.Policy); err != nil {
			sh.adErr = err
		} else {
			// Keep the snapshot descriptor pointing at the live policy; a
			// restored shard reparses the promoted expression.
			sh.policyName, sh.policyExpr = d.Policy.Name(), d.PolicyExpr
		}
	}
}

// AdaptStart attaches the adaptive retraining loop, journaled like any
// other mutation. It needs a single-shard federation.
func (f *Federation) AdaptStart(ac durable.AdaptConfig) error {
	return f.adaptMutate(&durable.Record{Op: durable.OpAdaptStart, Adapt: &ac})
}

// AdaptStop detaches the adaptive loop (a no-op when none runs).
func (f *Federation) AdaptStop() error {
	return f.adaptMutate(&durable.Record{Op: durable.OpAdaptStop})
}

func (f *Federation) adaptMutate(rec *durable.Record) error {
	if f.Draining() {
		return ErrDraining
	}
	_, _, err := f.mutate(0, rec, nil, nil)
	return err
}

// AdaptStatus is the adaptive loop's state as /v1/adapt reports it.
type AdaptStatus struct {
	Enabled    bool
	Window     int
	NextCheck  float64
	Rounds     int
	Promotions int
	Policy     string             // the active policy
	Err        error              // the loop's last failure, if any
	Last       *adaptive.Decision // the latest round's verdict, if any
}

// AdaptStatus reports shard 0's adaptive loop.
func (f *Federation) AdaptStatus() AdaptStatus {
	sh := f.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := AdaptStatus{Policy: sh.s.Policy().Name(), Err: sh.adErr}
	if sh.ad != nil {
		st.Enabled = true
		st.Window = sh.ad.WindowLen()
		st.NextCheck = sh.ad.NextCheck()
		st.Rounds = sh.ad.Rounds()
		st.Promotions = sh.ad.Promotions()
		if d := sh.ad.LastDecision(); d != nil {
			c := *d
			st.Last = &c
		}
	}
	return st
}
