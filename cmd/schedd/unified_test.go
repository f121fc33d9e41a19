package main

// Tests for the edges where one shard and many meet: the one-shard reply
// bytes, journal counters across shards, the real clock after a
// recovery, and the adoption of a data directory in the flat layout a
// single-engine daemon wrote.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/sim"
)

// rawPost posts body and returns the status code and the raw reply.
func rawPost(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// rawGet returns a GET's raw reply body.
func rawGet(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScheddOneShardReplyGolden pins the mutation reply bytes at one
// shard: the format clients of the single-engine daemon parse, with no
// "shard" key. Above one shard a submit's reply names its shard.
func TestScheddOneShardReplyGolden(t *testing.T) {
	ts := newTestServer(t, 4)
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/submit", `{"id":1,"cores":3,"runtime":100,"estimate":100}`,
			`{"started":[{"id":1,"time":0,"wait":0,"backfilled":false}],"now":0}`},
		{"/v1/submit", `{"id":2,"cores":4,"runtime":40,"estimate":40,"now":1}`,
			`{"started":[],"now":1}`},
		{"/v1/submit", `{"id":3,"cores":1,"runtime":10,"estimate":10,"now":2.5}`,
			`{"started":[{"id":3,"time":2.5,"wait":0,"backfilled":true}],"now":2.5}`},
		{"/v1/complete", `{"id":3,"now":12.5}`, `{"started":[],"now":12.5}`},
		{"/v1/complete", `{"id":1,"now":100}`,
			`{"started":[{"id":2,"time":100,"wait":99,"backfilled":false}],"now":100}`},
		{"/v1/advance", `{"now":150}`, `{"started":[],"now":150}`},
		{"/v1/policy", `{"name":"F1"}`, `{"policy":"F1"}`},
	} {
		if code, got := rawPost(t, ts, tc.path, tc.body); code != 200 || got != tc.want+"\n" {
			t.Fatalf("POST %s %s: code=%d\n got %q\nwant %q", tc.path, tc.body, code, got, tc.want+"\n")
		}
	}

	_, fts := newFedTestServer(t, 4, 4, 0)
	if code, got := rawPost(t, fts, "/v1/submit", `{"id":1,"cores":1,"runtime":10}`); code != 200 || !strings.Contains(got, `,"shard":`) {
		t.Fatalf("4-shard submit reply lacks its shard: code=%d %q", code, got)
	}
}

// TestScheddWALCountersSharded pins the journal counters of a durable
// federation: each shard store reports into a counters-only sink folded
// into /metrics, so gensched_wal_records_total counts every shard's
// appends, and each shard's journal gauges carry a shard label.
func TestScheddWALCountersSharded(t *testing.T) {
	const shards = 4
	cfg := durableTestConfig(t.TempDir(), 8)
	cfg.shards, cfg.telemetry = shards, true
	sv, ts := startServer(t, cfg)
	seqSum := func() (n float64) {
		for _, h := range sv.fd.Health() {
			n += float64(h.Seq)
		}
		return n
	}
	before := seqSum()
	const submits = 12
	for i := 1; i <= submits; i++ {
		body := fmt.Sprintf(`{"id":%d,"cores":2,"runtime":50,"estimate":50,"now":%d}`, i, i)
		if code, r := post(t, ts, "/v1/submit", body); code != 200 {
			t.Fatalf("submit %d: code=%d reply=%+v", i, code, r)
		}
	}
	if code, r := post(t, ts, "/v1/advance", `{"now":40}`); code != 200 {
		t.Fatalf("advance: code=%d reply=%+v", code, r)
	}
	appended := seqSum() - before
	if appended != submits+shards {
		t.Fatalf("journals advanced by %v records, want %d (one per submit, one advance per shard)", appended, submits+shards)
	}

	samples := lintExposition(t, string(rawGet(t, ts, "/metrics")))
	if got := samples["gensched_wal_records_total"]; len(got) != 1 || got[0].value != appended {
		t.Fatalf("gensched_wal_records_total = %+v, want %v", got, appended)
	}
	if got := samples["gensched_wal_syncs_total"]; len(got) != 1 || got[0].value == 0 {
		t.Fatalf("gensched_wal_syncs_total = %+v, want > 0", got)
	}
	for _, fam := range []string{"gensched_journal_seq", "gensched_last_checkpoint_clock_seconds", "gensched_store_failed"} {
		ss := samples[fam]
		if len(ss) != shards {
			t.Fatalf("%s has %d samples, want one per shard", fam, len(ss))
		}
		for i, s := range ss {
			if s.labels["shard"] != fmt.Sprint(i) {
				t.Fatalf("%s sample %d labeled %v", fam, i, s.labels)
			}
		}
	}
	// Journal events stay out of the decision trace.
	for _, ln := range strings.Split(strings.TrimSpace(string(rawGet(t, ts, "/v1/trace"))), "\n") {
		if strings.Contains(ln, `"kind":"wal_`) {
			t.Fatalf("journal event in the decision trace: %s", ln)
		}
	}
}

// TestScheddRealClockContinuesAfterRecovery pins -clock real across a
// restart: wall time continues from the recovered clock. Restarting it
// at zero would clamp every stamp up to the recovered clock, freezing
// the daemon until wall time caught up.
func TestScheddRealClockContinuesAfterRecovery(t *testing.T) {
	const recovered = 5000.0
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := durableTestConfig(t.TempDir(), 8)
			cfg.shards = shards
			sv, ts := startServer(t, cfg)
			if code, r := post(t, ts, "/v1/advance", fmt.Sprintf(`{"now":%g}`, recovered)); code != 200 || r.Now != recovered {
				t.Fatalf("advance: code=%d reply=%+v", code, r)
			}
			ts.Close()
			if err := sv.fd.Drain(); err != nil {
				t.Fatal(err)
			}

			cfg.clock = "real"
			_, ts2 := startServer(t, cfg)
			code, r := post(t, ts2, "/v1/submit", `{"id":1,"cores":1,"runtime":10,"estimate":10}`)
			if code != 200 || r.Now <= recovered {
				t.Fatalf("submit after recovery to t=%g: code=%d reply=%+v, want now > %g", recovered, code, r, recovered)
			}
		})
	}
}

// TestScheddTraceLateSubmitInClockOrder pins the trace stamp of a late
// report: a submit whose submit time is behind the clock is traced at
// the clock, with the submit time in "a", so the merged /v1/trace —
// ordered by clock — keeps a shard's events in sequence order.
func TestScheddTraceLateSubmitInClockOrder(t *testing.T) {
	_, ts := newTelemetryServer(t, 4, 64)
	post(t, ts, "/v1/submit", `{"id":1,"cores":1,"runtime":100,"estimate":100,"now":20}`)
	post(t, ts, "/v1/submit", `{"id":2,"cores":1,"runtime":100,"estimate":100,"submit":5,"now":21}`)
	lastSeq, lastT, late := -1, -1.0, false
	for _, ln := range strings.Split(strings.TrimSpace(string(rawGet(t, ts, "/v1/trace"))), "\n") {
		var ev struct {
			Seq  int     `json:"seq"`
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
			Job  int     `json:"job"`
			A    float64 `json:"a"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		if ev.Seq <= lastSeq || ev.T < lastT {
			t.Fatalf("trace line %q out of (clock, seq) order after seq %d at t=%g", ln, lastSeq, lastT)
		}
		lastSeq, lastT = ev.Seq, ev.T
		if ev.Kind == "submit" && ev.Job == 2 {
			late = ev.T == 21 && ev.A == 5
		}
	}
	if !late {
		t.Fatal("late submit not traced at the clock with its submit time in a")
	}
}

// provenanceKeys are the /v1/status fields that describe how a boot came
// back rather than the scheduling state.
var provenanceKeys = []string{"journal_seq", "recovered", "from_snapshot", "snapshot_seq",
	"snapshot_clock", "replayed_records", "segments_scanned"}

// statusSansProvenance decodes /v1/status without recovery provenance.
func statusSansProvenance(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decode /v1/status %s: %v", body, err)
	}
	delete(m, "durable")
	shards, _ := m["per_shard"].([]any)
	for _, sh := range shards {
		for _, k := range provenanceKeys {
			delete(sh.(map[string]any), k)
		}
	}
	return m
}

// TestScheddAdoptsSingleEngineDataDir writes a data directory in the
// flat layout a single-engine daemon journaled — genesis, traffic, an
// adaptive-loop start, a checkpoint carrying the loop's state, then a
// journal tail — boots the daemon on it, and requires /v1/status (minus
// provenance), /v1/metrics and /v1/adapt to equal an uninterrupted
// in-memory twin's that saw the same records. The directory is adopted
// as shard 0.
func TestScheddAdoptsSingleEngineDataDir(t *testing.T) {
	const cores = 16
	cfg := crashConfig(cores, "easy", "F1", true)
	n := 36
	if testing.Short() {
		n = 16
	}
	ops := scriptOps(t, cfg, crashWorkload(t, 1234, n, cores), true)
	// Keep the adaptive loop running to the end of the stream.
	end, adaptAt := len(ops), -1
	for k := range ops {
		switch ops[k].Op {
		case durable.OpAdaptStart:
			adaptAt = k
		case durable.OpAdaptStop:
			end = k
		}
	}
	ckptAt := (adaptAt + end) / 2
	if adaptAt < 0 || ckptAt <= adaptAt || ckptAt >= end-1 {
		t.Fatalf("scripted stream has no room for a checkpoint inside the adaptive stretch (start %d, end %d)", adaptAt, end)
	}

	dir := t.TempDir()
	store, _, err := durable.Open(dir, durable.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	init := durable.InitState{Cores: cores, Backfill: int(sim.BackfillEASY), UseEstimates: true, PolicyName: "F1"}
	if err := store.Append(&durable.Record{Op: durable.OpInit, Init: &init}); err != nil {
		t.Fatal(err)
	}
	twin := bootServer(t, cfg)
	for k := range ops[:end] {
		rec := ops[k]
		if _, _, _, err := twin.apply(&rec, nil); err != nil {
			t.Fatalf("twin op %d (%v): %v", k, rec.Op, err)
		}
		if err := store.Append(&rec); err != nil {
			t.Fatal(err)
		}
		if k == ckptAt {
			snap, err := twin.fd.ShardSnapshot(0)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Adapt == nil {
				t.Fatal("checkpoint inside the adaptive stretch carries no loop state")
			}
			snap.Fed = nil // the single-engine writer had no federation tag
			if err := store.Checkpoint(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	sv, ts := startServer(t, journaledConfig(cfg, dir, 0))
	if h := sv.fd.Health()[0]; !h.FromSnapshot || h.Replayed != end-1-ckptAt {
		t.Fatalf("adoption provenance %+v, want a snapshot plus %d replayed records", h, end-1-ckptAt)
	}
	tts := httptest.NewServer(twin.handler())
	defer tts.Close()

	if got, want := statusSansProvenance(t, rawGet(t, ts, "/v1/status")),
		statusSansProvenance(t, rawGet(t, tts, "/v1/status")); !reflect.DeepEqual(got, want) {
		t.Fatalf("/v1/status differs:\n got %v\nwant %v", got, want)
	}
	for _, path := range []string{"/v1/metrics", "/v1/adapt"} {
		if got, want := rawGet(t, ts, path), rawGet(t, tts, path); string(got) != string(want) {
			t.Fatalf("%s differs:\n got %s\nwant %s", path, got, want)
		}
	}
	if st := sv.fd.AdaptStatus(); !st.Enabled || st.Rounds == 0 {
		t.Fatalf("adopted adaptive loop: %+v, want a running loop that has retrained", st)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() || entries[0].Name() != "shard-0000" {
		t.Fatalf("data dir after adoption holds %v, want only shard-0000/", entries)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000", "snapshot")); err != nil {
		t.Fatalf("adopted snapshot: %v", err)
	}
}
