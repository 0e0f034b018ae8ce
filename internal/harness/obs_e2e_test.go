package harness_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"privid/internal/harness"
	"privid/internal/obs"
	"privid/internal/server"
)

// findSpans collects every span named name, depth-first.
func findSpans(t obs.SpanTree, name string) []obs.SpanTree {
	var out []obs.SpanTree
	if t.Name == name {
		out = append(out, t)
	}
	for _, c := range t.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

func spanNum(s obs.SpanTree, key string) float64 {
	switch v := s.Attrs[key].(type) {
	case float64:
		return v
	case nil:
		return 0
	default:
		return -1
	}
}

// TestE2ETraceMultiCamera pins the trace endpoint contract end to end:
// a completed cross-camera query serves a span tree with one shard span
// per camera under PROCESS, a serving-layer parse span, and cache
// hit/miss tallies that agree with the engine's cache counters.
func TestE2ETraceMultiCamera(t *testing.T) {
	t.Parallel() // stacks carry isolated obs registries — no cross-test bleed
	h := harness.Start(t, harness.Config{Cameras: 3, Epsilon: 10})

	// A pending (unknown) job's trace is a 404; a bad ID too.
	resp, err := http.Get(h.Srv.URL + "/v1/queries/q-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace status %d, want 404", resp.StatusCode)
	}

	job := h.SubmitWait("alice", fleetCountQuery(0.5))
	if job.State != "done" {
		t.Fatalf("job = %+v", job)
	}
	tree := h.Trace(job.ID)
	if tree.Name != "query" || tree.DurationNS <= 0 {
		t.Fatalf("root span = %+v", tree)
	}
	if tree.Attrs["job_id"] != job.ID || tree.Attrs["analyst"] != "alice" {
		t.Errorf("root attrs = %+v", tree.Attrs)
	}
	for _, stage := range []string{"parse", "split", "process", "aggregate", "admit", "wal_commit", "noise"} {
		if n := len(findSpans(tree, stage)); n != 1 {
			t.Errorf("stage %q: %d spans, want 1", stage, n)
		}
	}
	shards := findSpans(tree, "shard")
	if len(shards) != 3 {
		t.Fatalf("shard spans = %d, want 3 (one per camera)", len(shards))
	}
	var misses float64
	cams := map[string]bool{}
	for _, sh := range shards {
		cam, _ := sh.Attrs["camera"].(string)
		cams[cam] = true
		misses += spanNum(sh, "cache_misses")
		if spanNum(sh, "cache_hits") != 0 {
			t.Errorf("cold shard recorded hits: %+v", sh.Attrs)
		}
	}
	for i := 0; i < 3; i++ {
		if !cams[harness.CameraName(i)] {
			t.Errorf("no shard span for %s", harness.CameraName(i))
		}
	}
	if got := float64(h.Engine.CacheStats().Misses); misses != got {
		t.Errorf("trace misses = %v, engine counted %v", misses, got)
	}

	// Warm rerun: the shard spans must report hits matching the cache's
	// delta.
	preHits := h.Engine.CacheStats().Hits
	job2 := h.SubmitWait("alice", fleetCountQuery(0.5))
	if job2.State != "done" {
		t.Fatalf("warm job = %+v", job2)
	}
	var hits float64
	for _, sh := range findSpans(h.Trace(job2.ID), "shard") {
		hits += spanNum(sh, "cache_hits")
	}
	if got := float64(h.Engine.CacheStats().Hits - preHits); hits != got {
		t.Errorf("warm trace hits = %v, engine delta %v", hits, got)
	}
}

// TestE2ETraceNotDurable pins that traces live in memory only: after a
// restart against the same state dir the recovered job still polls and
// serves its result, but its trace answers 404 — the WAL holds no span
// tree.
func TestE2ETraceNotDurable(t *testing.T) {
	t.Parallel() // stacks carry isolated obs registries — no cross-test bleed
	h := harness.Start(t, harness.Config{StateDir: t.TempDir()})
	job := h.SubmitWait("alice", harness.CountQuery(0, 2, 0.5))
	if job.State != "done" {
		t.Fatalf("job = %+v", job)
	}
	if len(findSpans(h.Trace(job.ID), "shard")) == 0 {
		t.Error("live trace has no shard spans")
	}

	h.Restart()
	if sched, _, _ := h.Stats(); sched.Recovered == 0 {
		t.Error("restart recovered no jobs")
	}
	got, ok := h.Job(job.ID)
	if !ok || got.State != "done" || got.Result == nil {
		t.Fatalf("recovered job = %+v (found %v)", got, ok)
	}
	for path, want := range map[string]int{"/result": http.StatusOK, "/trace": http.StatusNotFound} {
		resp, err := http.Get(h.Srv.URL + "/v1/queries/" + job.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s after restart: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestE2EMetricsScrape pins the scrape contract: /v1/metrics serves
// valid Prometheus text covering engine and scheduler families, and the
// stats endpoint's per-camera budgets agree with the gauges.
func TestE2EMetricsScrape(t *testing.T) {
	t.Parallel() // stacks carry isolated obs registries — no cross-test bleed
	h := harness.Start(t, harness.Config{Cameras: 2, Epsilon: 10, StateDir: t.TempDir()})
	if job := h.SubmitWait("alice", harness.CountQuery(0, 2, 0.5)); job.State != "done" {
		t.Fatalf("job = %+v", job)
	}

	out := h.Metrics()
	if _, err := obs.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		`privid_queries_total{outcome="ok"} 1`,
		`privid_scheduler_submissions_total 1`,
		`privid_scheduler_queue_depth 0`,
		`privid_camera_epsilon_remaining{camera="cam"} 9.5`,
		`privid_camera_epsilon_remaining{camera="cam2"} 10`,
		`privid_query_stage_seconds_bucket{stage="parse",le="+Inf"} 1`,
		`privid_query_stage_seconds_bucket{stage="queue_wait",le="+Inf"} 1`,
		"# TYPE privid_wal_append_seconds histogram",
		"privid_wal_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	_, cams, _ := h.Stats()
	if len(cams) != 2 {
		t.Fatalf("stats cameras = %+v, want 2", cams)
	}
	if cams[0].Name != "cam" || cams[0].Remaining != 9.5 || cams[0].Epsilon != 10 {
		t.Errorf("stats cameras[0] = %+v", cams[0])
	}
	if cams[1].Name != "cam2" || cams[1].Remaining != 10 {
		t.Errorf("stats cameras[1] = %+v", cams[1])
	}

	// A refused submission (parse error) shows up in the refusal
	// counter.
	if _, status, _ := h.TrySubmit("alice", "SPLIT nope"); status != http.StatusBadRequest {
		t.Fatalf("garbage submit status %d", status)
	}
	if out := h.Metrics(); !strings.Contains(out, `privid_scheduler_refusals_total{reason="parse"} 1`) {
		t.Error("parse refusal not counted")
	}
}

// TestE2ESlowQueryLog pins the slow-query log contract: with a
// threshold of 1ns every terminal job is logged as one JSON line
// carrying durations, queue wait, ε spent and a per-stage breakdown —
// and the log is flushed by Close. Also covers the post-shutdown
// scrape regression: the registry must stay scrapeable after the stack
// stops.
func TestE2ESlowQueryLog(t *testing.T) {
	t.Parallel() // stacks carry isolated obs registries — no cross-test bleed
	var buf bytes.Buffer
	h := harness.Start(t, harness.Config{
		Scheduler: server.SchedulerOptions{
			SlowQueryLog:       &buf,
			SlowQueryThreshold: time.Nanosecond,
		},
	})
	if job := h.SubmitWait("alice", harness.CountQuery(0, 2, 0.5)); job.State != "done" {
		t.Fatalf("job = %+v", job)
	}
	if out := h.Metrics(); !strings.Contains(out, "privid_slow_queries_total 1") {
		t.Error("slow-query counter not exported")
	}
	sched, _, _ := h.Stats()
	if sched.SlowQueries != 1 {
		t.Errorf("stats slow queries = %d, want 1", sched.SlowQueries)
	}

	h.Stop() // syncs the slow log, flushes the engine's final snapshot

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log has %d lines, want 1: %q", len(lines), buf.String())
	}
	var e obs.SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("slow entry not JSON: %v (%s)", err, lines[0])
	}
	if e.JobID == "" || e.Analyst != "alice" || e.State != "done" {
		t.Errorf("slow entry = %+v", e)
	}
	if e.Duration <= 0 || e.QueueWait < 0 {
		t.Errorf("slow entry durations = %v / %v", e.Duration, e.QueueWait)
	}
	if e.EpsilonSpent != 0.5 {
		t.Errorf("slow entry ε = %v, want 0.5", e.EpsilonSpent)
	}
	for _, stage := range []string{"parse", "process", "admit", "noise"} {
		if e.Stages[stage] < 0 {
			t.Errorf("stage %q breakdown negative: %v", stage, e.Stages)
		}
		if _, ok := e.Stages[stage]; !ok {
			t.Errorf("stage %q missing from breakdown: %v", stage, e.Stages)
		}
	}

	// Post-shutdown scrape regression: collectors must tolerate the
	// closed stack (idle scheduler, closed WAL) and render cleanly.
	var after strings.Builder
	if _, err := h.Engine.Metrics().WriteTo(&after); err != nil {
		t.Fatalf("post-shutdown scrape: %v", err)
	}
	if _, err := obs.CheckExposition(strings.NewReader(after.String())); err != nil {
		t.Fatalf("post-shutdown exposition invalid: %v", err)
	}
	if !strings.Contains(after.String(), `privid_queries_total{outcome="ok"} 1`) {
		t.Error("post-shutdown scrape lost counters")
	}
}

// TestE2ETraceOmitsRowCounts pins that the trace never carries a
// shard's exact row count: for a one-row-per-chunk COUNT(*) it is the
// un-noised answer. The trace of a budget-denied job is served too, so
// both an admitted and a denied COUNT are checked. Admission comes
// before execution, so the denied job touched no chunk and its trace
// has no shard span at all.
func TestE2ETraceOmitsRowCounts(t *testing.T) {
	t.Parallel() // stacks carry isolated obs registries — no cross-test bleed
	h := harness.Start(t, harness.Config{Epsilon: 1})
	ok := h.SubmitWait("alice", harness.CountQuery(0, 2, 0.8))
	denied := h.SubmitWait("alice", harness.CountQuery(0, 2, 0.8))
	if ok.State != "done" || denied.State != "failed" {
		t.Fatalf("jobs = %+v, %+v; want one done, one denied", ok, denied)
	}
	var check func(s obs.SpanTree)
	check = func(s obs.SpanTree) {
		if _, leaked := s.Attrs["rows"]; leaked {
			t.Errorf("span %q carries an exact row count: %+v", s.Name, s.Attrs)
		}
		for _, c := range s.Children {
			check(c)
		}
	}
	for _, job := range []harness.Job{ok, denied} {
		tree := h.Trace(job.ID)
		if shards := len(findSpans(tree, "shard")); (shards > 0) != (job.ID == ok.ID) {
			t.Fatalf("job %s (%s): trace has %d shard spans", job.ID, job.State, shards)
		}
		check(tree)
	}
}
