// Command schedbench is the repository benchmark. It drives one of three
// workloads from outside the code under test and prints one JSON result
// line (see README.md):
//
//	http-interactive       schedd over loopback HTTP/JSON, one request in flight
//	binary-ingest-durable  a durable 4-shard schedd over the binary protocol
//	train-evaluate         the paper's train→fit→evaluate pipeline in-process
//
// Every daemon reply is checked against an in-process twin, the pipeline
// against recorded golden values and the reference simulator; any
// mismatch makes the result incorrect and the exit status nonzero.
// With -trace 1 the run reports the per-layer metrics instead and writes
// the spans it recorded as Chrome trace-event JSON.
//
// Build and run it through run.sh, which builds schedd first:
//
//	bash schedbench/run.sh --workload http-interactive --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	schedd   string // schedd binary
	work     string // scratch directory inside the checkout
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates the checked operations and the metrics of a run.
type report struct {
	attempted, failed int
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// check counts one checked operation, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		warnf("check failed: "+format, args...)
	}
}

// add counts a phase's checked replies.
func (r *report) add(ph phase) {
	r.attempted += ph.attempted
	r.failed += ph.failed
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "schedbench: "+format+"\n", args...)
}

var workloads = map[string]func(*config, *report) error{
	"http-interactive":      timedHTTP,
	"binary-ingest-durable": timedBinary,
	"train-evaluate":        timedPipeline,
}

func main() {
	var (
		cfg     config
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "http-interactive | binary-ingest-durable | train-evaluate")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 35, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics and a span file")
	flag.StringVar(&cfg.schedd, "schedd", "", "path to a built schedd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for data dirs and span files")
	flag.Parse()
	cfg.dur = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.dur <= 0 || cfg.schedd == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: schedbench -schedd PATH -workload NAME -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	rep, err := runIn(&cfg, run, stopOnSignal())
	if err != nil {
		warnf("%v", err)
		os.Exit(1)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		warnf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// stopOnSignal makes SIGINT and SIGTERM stop every daemon, remove the
// scratch directory sent on the returned channel, and exit 1.
func stopOnSignal() chan<- string {
	dirs := make(chan string, 1) // one directory per run
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		var dir string
		for {
			select {
			case dir = <-dirs:
			case sig := <-sigs:
				running.killAll()
				if dir != "" {
					os.RemoveAll(dir)
				}
				warnf("stopped by %v", sig)
				os.Exit(1)
			}
		}
	}()
	return dirs
}

// runIn runs one workload in a private scratch directory, removed
// however the run ends; the directory is also sent on scratch.
func runIn(cfg *config, run func(*config, *report) error, scratch chan<- string) (*report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	scratch <- work
	abs, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	spanDir := cfg.work
	cfg.work = abs
	rep := newReport()
	if cfg.trace {
		err = tracedRun(cfg, rep, spanDir)
	} else {
		err = run(cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.metrics[k]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for k, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return rep, nil
}
