package main

import (
	"context"
	"fmt"
	"math"
	"syscall"
	"time"

	gensched "github.com/hpcsched/gensched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/simref"
)

// The train→fit→evaluate configuration (the paper's §3.2 training at
// reduced trial count, and the Fig. 6a evaluation setting).
const (
	trainTuples = 16
	trainTrials = 4096
	fitTop      = 4
	evalCores   = 256
	evalDays    = 15
	evalSeqs    = 20
	evalLoad    = 1.05

	// pipelineWorkers is the pipeline's worker count. The pipeline runs
	// on one pinned CPU: with a worker per vCPU of a shared host, each
	// iteration waits on whichever vCPU the host slowed most, and runs of
	// the same code spread by a quarter.
	pipelineWorkers = 1
)

var evalBaselines = []string{"FCFS", "F1"}

// buildEvalWorkload generates the evaluation sequences through the
// public workload source: Lublin arrivals calibrated to evalLoad with
// Tsafrir estimates.
func buildEvalWorkload(seed uint64) (*gensched.Workload, error) {
	return gensched.Lublin().Build(gensched.WorkloadRequest{
		Cores: evalCores, Days: evalDays, Sequences: evalSeqs, Load: evalLoad, Seed: seed,
	})
}

// iteration is one pass of the pipeline.
type iteration struct {
	trainS   float64 // tuples + fit
	fitS     float64
	evalS    float64
	evalCPUS float64 // process CPU time during the evaluation
	evalJobs int     // jobs simulated across the grid
	exprs    []string
	cells    []float64 // AVEbsld per grid cell, policy order
	perSeq   [][]float64
	policies []gensched.Policy
}

// runPipeline trains on trainTuples tuples, fits the top fitTop
// policies and evaluates them beside the baselines on w.
func runPipeline(seed uint64, w *gensched.Workload, tr *tracer) (*iteration, error) {
	root := tr.begin("pipeline.iteration", -1)
	defer tr.end(root)
	it := &iteration{}
	var samples []gensched.Sample
	tTrain := time.Now()
	for i := 0; i < trainTuples; i++ {
		t0 := time.Now()
		s, err := gensched.GenerateScoreDistribution(gensched.TrainingConfig{
			Tuples: 1, Trials: trainTrials, Seed: gensched.SplitSeed(seed, uint64(i)),
			SSize: 16, QSize: 32, Cores: 256, Workers: pipelineWorkers,
		})
		if err != nil {
			return nil, fmt.Errorf("tuple %d: %w", i, err)
		}
		t1 := time.Now()
		tr.record("trainer.GenerateScoreDistribution", t0, t1, root)
		samples = append(samples, s...)
	}
	t0 := time.Now()
	learned, fits, err := gensched.FitPolicies(samples, fitTop, pipelineWorkers)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	t1 := time.Now()
	tr.record("mlfit.FitPolicies", t0, t1, root)
	it.fitS = t1.Sub(t0).Seconds()
	it.trainS = t1.Sub(tTrain).Seconds()
	for i, f := range fits {
		simplified, _ := f.Func.Simplified()
		it.exprs = append(it.exprs, learned[i].Name()+" = "+simplified.String())
	}

	for _, name := range evalBaselines {
		p, err := gensched.PolicyByName(name)
		if err != nil {
			return nil, err
		}
		it.policies = append(it.policies, p)
	}
	it.policies = append(it.policies, learned...)
	base, err := gensched.NewScenario(gensched.WithName("fig6a"), gensched.WithCores(evalCores),
		gensched.WithEASY(), gensched.WithEstimates())
	if err != nil {
		return nil, err
	}
	grid, err := gensched.NewGrid(base,
		gensched.OverSources(gensched.FixedWindows("lublin_256", evalCores, w.Windows)),
		gensched.OverPolicySet(it.policies...))
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	res, err := (&gensched.Runner{Workers: pipelineWorkers}).Run(context.Background(), grid)
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	t1 = time.Now()
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	it.evalCPUS = (cpu1 - cpu0).Seconds()
	tr.record("runner.Run", t0, t1, root)
	it.evalS = t1.Sub(t0).Seconds()
	for _, c := range res.Cells {
		it.cells = append(it.cells, c.AVEbsld)
		it.perSeq = append(it.perSeq, c.PerSeq)
	}
	for _, win := range w.Windows {
		it.evalJobs += len(win) * len(it.policies)
	}
	return it, nil
}

// sameOutputs reports whether two iterations learned the same
// expressions and scored every cell bit-identically.
func sameOutputs(a, b *iteration) bool {
	if len(a.exprs) != len(b.exprs) || len(a.cells) != len(b.cells) {
		return false
	}
	for i := range a.exprs {
		if a.exprs[i] != b.exprs[i] {
			return false
		}
	}
	for i := range a.cells {
		if math.Float64bits(a.cells[i]) != math.Float64bits(b.cells[i]) {
			return false
		}
	}
	return true
}

// referenceSeqs is how many sequences per grid cell the reference
// simulator re-schedules; it is slow enough that all of them would
// outlast the measurement.
const referenceSeqs = 1

// checkAgainstReference re-schedules the first referenceSeqs sequences
// of every cell with the independent reference simulator and requires
// each one's AVEbsld to match the Runner's bit for bit. It returns the
// number of mismatching sequences.
func checkAgainstReference(it *iteration, w *gensched.Workload) (int, error) {
	bad := 0
	for ci, p := range it.policies {
		for si, jobs := range w.Windows[:referenceSeqs] {
			pl, err := simref.Run(evalCores, jobs, simref.Options{Policy: p, Mode: simref.ModeEASY, UseEstimates: true})
			if err != nil {
				return 0, err
			}
			var sum float64
			for _, x := range pl {
				sum += sim.Bsld(x.Start-x.Job.Submit, x.Job.Runtime, 0)
			}
			if ref := sum / float64(len(pl)); math.Float64bits(ref) != math.Float64bits(it.perSeq[ci][si]) {
				bad++
				if bad <= 3 {
					warnf("cell %s seq %d: runner AVEbsld %v, reference %v", p.Name(), si, it.perSeq[ci][si], ref)
				}
			}
		}
	}
	return bad, nil
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
