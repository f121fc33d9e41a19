package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/workload"
)

// server serves a fed.Federation — one shard or many — over HTTP/JSON
// and the binary protocol. The federation does its own locking (router
// under one mutex, each shard under its own), so there is no handler
// mutex: requests for different shards run concurrently. Mutation
// replies are rendered from pooled buffers, so the steady-state hot
// path allocates only what request decoding needs.
type server struct {
	fd        *fed.Federation
	realClock bool
	epoch     time.Time // -clock real: the instant the shard clocks read 0

	edge    *telemetry.Edge // wall-clock endpoint latencies; nil without -telemetry
	pprofOn bool

	bufs   sync.Pool // *[]byte response buffers
	starts sync.Pool // *[]online.Start scratch
}

// openServer builds the daemon run() serves: the federation (recovered
// from -data-dir when set) plus its HTTP/binary edge.
func openServer(cfg daemonConfig) (*server, error) {
	p, err := resolvePolicy(cfg.policy, "")
	if err != nil {
		return nil, err
	}
	bf, err := parseBackfill(cfg.backfill)
	if err != nil {
		return nil, err
	}
	if cfg.clock != "logical" && cfg.clock != "real" {
		return nil, fmt.Errorf("unknown clock source %q", cfg.clock)
	}
	if cfg.shards < 1 {
		return nil, fmt.Errorf("-shards must be at least 1, got %d", cfg.shards)
	}
	fcfg := fed.Config{
		Shards:     cfg.shards,
		ShardCores: cfg.cores,
		Opt: online.Options{
			Policy:       p,
			UseEstimates: cfg.estimates,
			Backfill:     bf,
			Tau:          cfg.tau,
			Check:        cfg.check,
		},
		Seed: cfg.fedSeed,
	}
	if cfg.telemetry {
		fcfg.TraceBuf = cfg.traceBuf
	}
	fd, err := fed.Open(fcfg, fed.DurableConfig{
		Dir:           cfg.dataDir,
		SyncEvery:     cfg.fsync,
		CkptEvery:     cfg.ckptEvery,
		PolicyName:    cfg.policy,
		ResolvePolicy: resolvePolicy,
	})
	if err != nil {
		return nil, err
	}
	sv := &server{
		fd:        fd,
		realClock: cfg.clock == "real",
		// Wall time continues from the recovered clock instead of
		// restarting at zero, which would stall every stamp until wall
		// time caught up with the recovered state.
		epoch:   time.Now().Add(-time.Duration(fd.Clock() * float64(time.Second))),
		pprofOn: cfg.pprofFlag,
		bufs:    sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }},
		starts:  sync.Pool{New: func() any { s := make([]online.Start, 0, 64); return &s }},
	}
	if cfg.telemetry {
		sv.edge = telemetry.NewEdge(edgeEndpoints...)
	}
	return sv, nil
}

// statusError pins an HTTP status to an error. Handler errors default to
// 409 Conflict (the request was well-formed but the scheduler state
// refuses it: duplicate ID, backward clock, loop already running);
// validation failures wrap in 400 via badRequest.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func badRequest(err error) error { return &statusError{code: http.StatusBadRequest, err: err} }

// errStatus maps a handler error to its HTTP status. Federation
// degradation errors carry their own mapping: a quarantined shard or a
// drain in progress refuses before applying (503, retryable), while a
// journal failure after the mutation applied is a 500.
func errStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	if errors.Is(err, fed.ErrBadAdapt) {
		return http.StatusBadRequest
	}
	var down *fed.ShardDownError
	if errors.As(err, &down) || errors.Is(err, fed.ErrDraining) {
		return http.StatusServiceUnavailable
	}
	var broken *fed.ShardBrokenError
	if errors.As(err, &broken) {
		return http.StatusInternalServerError
	}
	return http.StatusConflict
}

// retryAfterSecs is the Retry-After value on every retryable 503: long
// enough that a polite client's backoff dominates, short enough that a
// drain-then-restart rolls through quickly.
const retryAfterSecs = "1"

// writeHandlerErr renders a handler error, attaching Retry-After to
// refused-before-apply conditions (fed.Retryable) so polite clients
// back off instead of hammering a draining or degraded daemon.
func writeHandlerErr(w http.ResponseWriter, err error) {
	if fed.Retryable(err) {
		w.Header().Set("Retry-After", retryAfterSecs)
	}
	writeErr(w, errStatus(err), err.Error())
}

func (sv *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", sv.timed("submit", sv.post(sv.submit)))
	mux.HandleFunc("/v1/complete", sv.timed("complete", sv.post(sv.complete)))
	mux.HandleFunc("/v1/advance", sv.timed("advance", sv.post(sv.advance)))
	mux.HandleFunc("/v1/policy", sv.timed("policy", sv.post(sv.policy)))
	mux.HandleFunc("/v1/adapt", sv.timed("adapt", sv.adapt))
	mux.HandleFunc("/v1/status", sv.timed("status", sv.get(sv.status)))
	mux.HandleFunc("/v1/metrics", sv.timed("metrics", sv.get(sv.metrics)))
	mux.HandleFunc("/v1/trace", sv.trace)
	mux.HandleFunc("/metrics", sv.promMetrics)
	mux.HandleFunc("/healthz", sv.healthz)
	registerPprof(mux, sv.pprofOn)
	return mux
}

// healthz reports store health: 200 while any shard can take traffic
// ("degraded" when some are quarantined — the per-request 503s steer
// clients off the dead shards while the rest keep serving), 503 once
// every shard's journal has failed. A clean drain is not a failure.
func (sv *server) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeErr(w, http.StatusMethodNotAllowed, "GET or HEAD only")
		return
	}
	health := sv.fd.Health()
	down, firstErr := 0, ""
	for _, h := range health {
		if h.Quarantined {
			if down == 0 {
				firstErr = h.StoreErr
			}
			down++
		}
	}
	switch {
	case down == 0:
		_, _ = w.Write([]byte("ok\n")) // a probe that hung up is its own problem
	case down < len(health):
		fmt.Fprintf(w, "degraded (%d/%d shards quarantined)\n", down, len(health))
	default:
		w.Header().Set("Retry-After", retryAfterSecs)
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Sprintf("durable store failed on all %d shard(s): %s", down, firstErr))
	}
}

// request is the body every mutating endpoint accepts; endpoints read the
// fields they need. Now is a pointer so an explicit "now":0 — a real
// instant on the logical clock — is distinguishable from an omitted
// field.
type request struct {
	ID       int      `json:"id"`
	Cores    int      `json:"cores"`
	Runtime  float64  `json:"runtime"`
	Estimate float64  `json:"estimate"`
	Submit   float64  `json:"submit"`
	Now      *float64 `json:"now"`
	Name     string   `json:"name"`
	Expr     string   `json:"expr"`
}

func (sv *server) post(h func(http.ResponseWriter, *request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if err := r.Context().Err(); err != nil {
			// Shutting down or the client is gone: say so rather than
			// letting net/http emit an empty 200 for an unapplied mutation.
			writeErr(w, http.StatusServiceUnavailable, "request cancelled before processing")
			return
		}
		var req request
		r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		if err := h(w, &req); err != nil {
			writeHandlerErr(w, err)
		}
	}
}

func (sv *server) get(h func(http.ResponseWriter)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		h(w)
	}
}

// now resolves the effective clock for a request: wall time under
// -clock real; otherwise the request's "now" (explicit 0 IS instant
// zero), then "submit" when positive, then the federation clock (the
// maximum shard clock — per-shard clamping keeps every shard monotonic
// regardless).
func (sv *server) now(req *request) float64 {
	if sv.realClock {
		return time.Since(sv.epoch).Seconds()
	}
	if req.Now != nil {
		return *req.Now
	}
	if req.Submit > 0 {
		return req.Submit
	}
	return sv.fd.Clock()
}

// apply dispatches one mutation record through the federation, exactly
// as its HTTP endpoint does: the binary listener's path, and the one the
// crash suites drive. It returns the landing shard (-1 unless a submit),
// the starts appended to buf, and the resulting clock. An operation
// must leave the clock untouched when it fails (the online composite
// operations guarantee this), so a rejected request can never wedge the
// stream by stranding the clock in the future.
func (sv *server) apply(rec *durable.Record, buf []online.Start) (shard int, starts []online.Start, clock float64, err error) {
	switch rec.Op {
	case durable.OpSubmit:
		// Shape problems — nonpositive cores or runtime, wider than one
		// shard — are the client's fault: 400, before anything mutates.
		// What remains are state conflicts (duplicate ID, future submit),
		// which stay 409.
		if err := rec.Job.Validate(sv.fd.ShardCores()); err != nil {
			return -1, buf, 0, badRequest(err)
		}
		return sv.fd.Submit(rec.Now, rec.Job, buf)
	case durable.OpComplete:
		starts, clock, err = sv.fd.Complete(rec.Now, rec.ID, buf)
		return -1, starts, clock, err
	case durable.OpAdvance:
		starts, clock, err = sv.fd.AdvanceTo(rec.Now, buf)
		return -1, starts, clock, err
	case durable.OpPolicy:
		_, err = sv.setPolicy(rec.Name, rec.Expr)
	case durable.OpAdaptStart:
		if rec.Adapt == nil {
			return -1, buf, 0, badRequest(errors.New("adapt-start record without config"))
		}
		err = sv.fd.AdaptStart(*rec.Adapt)
	case durable.OpAdaptStop:
		err = sv.fd.AdaptStop()
	default:
		return -1, buf, 0, badRequest(fmt.Errorf("unexpected op %v", rec.Op))
	}
	return -1, buf, sv.fd.Clock(), err
}

// setPolicy resolves a policy descriptor and swaps it in on every
// shard; the journal records the descriptor, not the value.
func (sv *server) setPolicy(name, expr string) (sched.Policy, error) {
	p, err := resolvePolicy(name, expr)
	if err != nil {
		return nil, badRequest(err)
	}
	return p, sv.fd.SetPolicyNamed(p, name, expr)
}

// mutate applies one mutation request and renders its
// {"started":[...],"now":..} reply from pooled buffers. Above one shard
// a submit's reply also names the shard it landed on; at one shard the
// reply carries no shard key.
func (sv *server) mutate(w http.ResponseWriter, rec *durable.Record) error {
	sp := sv.starts.Get().(*[]online.Start)
	shard, starts, clock, err := sv.apply(rec, (*sp)[:0])
	*sp = starts
	if err == nil {
		bp := sv.bufs.Get().(*[]byte)
		buf := append((*bp)[:0], `{"started":[`...)
		buf = appendStarts(buf, starts)
		buf = append(buf, `],"now":`...)
		buf = strconv.AppendFloat(buf, clock, 'g', -1, 64)
		if shard >= 0 && sv.fd.Shards() > 1 {
			buf = append(buf, `,"shard":`...)
			buf = strconv.AppendInt(buf, int64(shard), 10)
		}
		buf = append(buf, '}', '\n')
		writeJSON(w, buf)
		*bp = buf
		sv.bufs.Put(bp)
	}
	sv.starts.Put(sp)
	return err
}

func (sv *server) submit(w http.ResponseWriter, req *request) error {
	return sv.mutate(w, &durable.Record{Op: durable.OpSubmit, Now: sv.now(req), Job: workload.Job{
		ID:       req.ID,
		Submit:   req.Submit,
		Runtime:  req.Runtime,
		Estimate: req.Estimate,
		Cores:    req.Cores,
	}})
}

func (sv *server) complete(w http.ResponseWriter, req *request) error {
	return sv.mutate(w, &durable.Record{Op: durable.OpComplete, Now: sv.now(req), ID: req.ID})
}

func (sv *server) advance(w http.ResponseWriter, req *request) error {
	return sv.mutate(w, &durable.Record{Op: durable.OpAdvance, Now: sv.now(req)})
}

func (sv *server) policy(w http.ResponseWriter, req *request) error {
	p, err := sv.setPolicy(req.Name, req.Expr)
	if err != nil {
		return err
	}
	writeJSON(w, []byte(`{"policy":`+strconv.Quote(p.Name())+"}\n"))
	return nil
}

// status and metrics are occasional diagnostics, not the hot path, so
// they go through encoding/json on tagged structs — no hand-maintained
// field lists to drift from online.Status/Metrics.

// shardStatus is one shard's block in /v1/status. The durability fields
// appear only on a journaled daemon: quarantined + store error report
// degradation, the rest is recovery provenance.
type shardStatus struct {
	Now           float64 `json:"now"`
	Cores         int     `json:"cores"`
	FreeCores     int     `json:"free_cores"`
	Queued        int     `json:"queued"`
	Running       int     `json:"running"`
	Submitted     int     `json:"submitted"`
	Completed     int     `json:"completed"`
	Quarantined   bool    `json:"quarantined,omitempty"`
	StoreError    string  `json:"store_error,omitempty"`
	JournalSeq    uint64  `json:"journal_seq,omitempty"`
	Recovered     bool    `json:"recovered,omitempty"`
	FromSnapshot  bool    `json:"from_snapshot,omitempty"`
	SnapshotSeq   uint64  `json:"snapshot_seq,omitempty"`
	SnapshotClock float64 `json:"snapshot_clock,omitempty"`
	Replayed      int     `json:"replayed_records,omitempty"`
	Segments      int     `json:"segments_scanned,omitempty"`
}

func (sv *server) status(w http.ResponseWriter) {
	st := sv.fd.Status()
	per := make([]shardStatus, len(st.PerShard))
	for i, s := range st.PerShard {
		per[i] = shardStatus{
			Now: s.Now, Cores: s.Cores, FreeCores: s.FreeCores,
			Queued: s.Queued, Running: s.Running,
			Submitted: s.Submitted, Completed: s.Completed,
		}
	}
	healthy := len(per)
	if sv.fd.Durable() {
		for i, h := range sv.fd.Health() {
			p := &per[i]
			p.Quarantined, p.StoreError, p.JournalSeq = h.Quarantined, h.StoreErr, h.Seq
			p.Recovered, p.FromSnapshot, p.Replayed, p.Segments = h.Recovered, h.FromSnapshot, h.Replayed, h.Segments
			p.SnapshotSeq, p.SnapshotClock = h.SnapshotSeq, h.SnapshotClock
			if h.Quarantined {
				healthy--
			}
		}
	}
	var violation string
	if st.Err != nil {
		violation = st.Err.Error()
	}
	marshalJSON(w, struct {
		Now                float64       `json:"now"`
		Shards             int           `json:"shards"`
		HealthyShards      int           `json:"healthy_shards"`
		Draining           bool          `json:"draining,omitempty"`
		Durable            bool          `json:"durable,omitempty"`
		Cores              int           `json:"cores"`
		FreeCores          int           `json:"free_cores"`
		Queued             int           `json:"queued"`
		Running            int           `json:"running"`
		Submitted          int           `json:"submitted"`
		Completed          int           `json:"completed"`
		Stolen             int           `json:"stolen"`
		Policy             string        `json:"policy"`
		InvariantViolation string        `json:"invariant_violation,omitempty"`
		PerShard           []shardStatus `json:"per_shard"`
	}{
		Now: st.Now, Shards: st.Shards, HealthyShards: healthy,
		Draining: sv.fd.Draining(), Durable: sv.fd.Durable(),
		Cores: st.Cores, FreeCores: st.FreeCores,
		Queued: st.Queued, Running: st.Running,
		Submitted: st.Submitted, Completed: st.Completed,
		Stolen: st.Stolen, Policy: st.Policy,
		InvariantViolation: violation, PerShard: per,
	})
}

// metricsJSON is the tagged rendering of online.Metrics shared by the
// merged block and the per-shard list.
type metricsJSON struct {
	Submitted   int     `json:"submitted"`
	Completed   int     `json:"completed"`
	Backfilled  int     `json:"backfilled"`
	MaxQueueLen int     `json:"max_queue_len"`
	AveBsld     float64 `json:"ave_bsld"`
	MeanWait    float64 `json:"mean_wait"`
	MaxBSLD     float64 `json:"max_bsld"`
	MaxWait     float64 `json:"max_wait"`
	Utilization float64 `json:"utilization"`
}

func toMetricsJSON(m online.Metrics) metricsJSON {
	return metricsJSON{
		Submitted: m.Submitted, Completed: m.Completed, Backfilled: m.Backfilled,
		MaxQueueLen: m.MaxQueueLen, AveBsld: m.AveBsld, MeanWait: m.MeanWait,
		MaxBSLD: m.MaxBSLD, MaxWait: m.MaxWait, Utilization: m.Utilization,
	}
}

func (sv *server) metrics(w http.ResponseWriter) {
	merged, per := sv.fd.Metrics()
	out := struct {
		metricsJSON
		PerShard []metricsJSON `json:"per_shard"`
	}{metricsJSON: toMetricsJSON(merged), PerShard: make([]metricsJSON, len(per))}
	for i, m := range per {
		out.PerShard[i] = toMetricsJSON(m)
	}
	marshalJSON(w, out)
}

// marshalJSON renders a cold-path response through encoding/json.
func marshalJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, append(buf, '\n'))
}

// appendStarts renders start notifications into the response buffer.
func appendStarts(buf []byte, starts []online.Start) []byte {
	for i, st := range starts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(st.ID), 10)
		buf = append(buf, `,"time":`...)
		buf = strconv.AppendFloat(buf, st.Time, 'g', -1, 64)
		buf = append(buf, `,"wait":`...)
		buf = strconv.AppendFloat(buf, st.Wait, 'g', -1, 64)
		buf = append(buf, `,"backfilled":`...)
		buf = strconv.AppendBool(buf, st.Backfilled)
		buf = append(buf, '}')
	}
	return buf
}

// Response-body write errors mean the client went away mid-reply; the
// mutation (if any) already applied and there is nothing actionable
// server-side, so the discard is deliberate and explicit.

func writeJSON(w http.ResponseWriter, buf []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write([]byte(`{"error":` + strconv.Quote(msg) + "}\n"))
}
