package core

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/query"
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

// attrNum reads a numeric span attribute whatever its concrete type
// (spans store numbers as float64s; decoded JSON may carry others).
func attrNum(t *testing.T, s obs.SpanTree, key string) float64 {
	t.Helper()
	switch v := s.Attrs[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case nil:
		return 0
	default:
		t.Fatalf("attr %q has type %T", key, v)
		return 0
	}
}

// TestExecuteTracedSpanTree pins the trace contract: a multi-camera
// query yields one span per pipeline stage, one shard span per camera
// under PROCESS, and the shard spans' cache hit/miss tallies agree with
// the engine's cache counters.
func TestExecuteTracedSpanTree(t *testing.T) {
	e := newFleetEngine(t, Options{Seed: 1}, 3, 10)
	prog, err := query.Parse(fleetQuery)
	if err != nil {
		t.Fatal(err)
	}

	res, tr, err := e.ExecuteTraced(&Prepared{Program: prog, Tag: "qhash-1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("no trace")
	}
	tree := tr.Tree()
	if tree.Name != "query" || tree.DurationNS <= 0 {
		t.Fatalf("root span: %+v", tree)
	}
	// The stages run in Algorithm 1's order, and the noise is drawn
	// before the one commit that carries the charges with the answer.
	var stages []string
	for _, c := range tree.Children {
		stages = append(stages, c.Name)
	}
	if want := []string{"split", "admit", "process", "aggregate", "noise", "wal_commit"}; !slices.Equal(stages, want) {
		t.Errorf("stages %v, want %v", stages, want)
	}

	shards := findSpans(tree, "shard")
	if len(shards) != 3 {
		t.Fatalf("shard spans: %d, want 3 (one per camera)", len(shards))
	}
	var misses float64
	cams := map[string]bool{}
	for _, sh := range shards {
		cams[sh.Attrs["camera"].(string)] = true
		if attrNum(t, sh, "chunks") != 60 { // 30 min / 30 s chunks
			t.Errorf("shard chunks = %v, want 60", sh.Attrs["chunks"])
		}
		if attrNum(t, sh, "cache_hits") != 0 {
			t.Errorf("cold run recorded cache hits: %v", sh.Attrs)
		}
		misses += attrNum(t, sh, "cache_misses")
	}
	for _, cam := range []string{"camA", "camB", "camC"} {
		if !cams[cam] {
			t.Errorf("no shard span for %s", cam)
		}
	}
	if stats := e.CacheStats(); misses != float64(stats.Misses) {
		t.Errorf("trace misses = %v, CacheStats.Misses = %d", misses, stats.Misses)
	}

	admit := findSpans(tree, "admit")[0]
	if admit.Attrs["outcome"] != "reserved" {
		t.Errorf("admit outcome: %v", admit.Attrs)
	}
	reserves := findSpans(tree, "reserve")
	if len(reserves) != 3 {
		t.Fatalf("reserve spans: %d, want 3", len(reserves))
	}
	var eps float64
	for _, r := range reserves {
		eps += attrNum(t, r, "epsilon")
	}
	if eps != res.EpsilonSpent*3 { // each release charges all 3 cameras
		t.Errorf("reserve epsilon sum = %v, want %v", eps, res.EpsilonSpent*3)
	}

	// Warm run: every chunk should come from the cache, and the shard
	// spans must say so in agreement with the cache counters.
	preHits := e.CacheStats().Hits
	_, tr2, err := e.ExecuteTraced(&Prepared{Program: prog, Tag: "qhash-2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hits float64
	for _, sh := range findSpans(tr2.Tree(), "shard") {
		hits += attrNum(t, sh, "cache_hits")
		if attrNum(t, sh, "cache_misses") != 0 {
			t.Errorf("warm run missed: %v", sh.Attrs)
		}
	}
	if got := e.CacheStats().Hits - preHits; hits != float64(got) {
		t.Errorf("trace hits = %v, CacheStats delta = %d", hits, got)
	}
}

// TestTracedDenialStillReturnsTrace pins that a budget denial produces
// a trace with the denial recorded on the admit span.
func TestTracedDenialStillReturnsTrace(t *testing.T) {
	e := newFleetEngine(t, Options{Seed: 1}, 1, 0.05) // budget below CONSUMING 0.2
	prog, err := query.Parse(strings.Replace(fleetQuery, "camA, camB, camC", "camA", 1))
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := e.ExecuteTraced(&Prepared{Program: prog}, nil)
	if err == nil {
		t.Fatal("expected budget denial")
	}
	admits := findSpans(tr.Tree(), "admit")
	if len(admits) != 1 || admits[0].Attrs["outcome"] != "denied" {
		t.Fatalf("admit span: %+v", admits)
	}
	if admits[0].Attrs["denied_camera"] != "camA" {
		t.Errorf("denied_camera: %v", admits[0].Attrs)
	}
}

// TestEngineMetricsExposition executes queries and checks the scrape:
// valid Prometheus text, covering query stages, cache, per-camera
// budget, and outcome counters with exact values.
func TestEngineMetricsExposition(t *testing.T) {
	e := newFleetEngine(t, Options{Seed: 1}, 3, 10)
	prog, err := query.Parse(fleetQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if _, err := e.Metrics().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if _, err := obs.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		`privid_queries_total{outcome="ok"} 2`,
		`privid_epsilon_spent_total{camera="camB"} 0.4`,
		`privid_releases_total 2`,
		`privid_camera_epsilon_budget{camera="camA"} 10`,
		`privid_camera_epsilon_remaining{camera="camC"} 9.6`,
		`privid_chunk_cache_misses_total 180`,
		`privid_chunk_cache_hits_total 0`,
		`privid_partial_agg_plans_total 2`,
		`privid_partial_agg_folds_total 180`,
		`privid_partial_agg_state_hits_total 180`,
		`privid_partial_agg_state_puts_total 180`,
		`privid_query_stage_seconds_bucket{stage="process",le="+Inf"} 2`,
		`privid_sandbox_inflight 0`,
		"# TYPE privid_query_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, "privid_wal_bytes") {
		t.Error("WAL gauges exported without a state dir")
	}
}

// privid_chunk_cache_declined_total counts the write-through puts a full
// RAM tier declined: the fleet query's 180 chunks put 360 entries, which
// an 8 KiB tier cannot keep, and none of which a 64 MiB tier declines.
func TestChunkCacheDeclinedFamily(t *testing.T) {
	prog, err := query.Parse(fleetQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cacheBytes int64
		declined   bool
	}{{8 << 10, true}, {0, false}} {
		e := newFleetEngine(t, Options{Seed: 1, ChunkCacheBytes: tc.cacheBytes}, 3, 10)
		if _, err := e.Execute(prog); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if _, err := e.Metrics().WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		zero := strings.Contains(b.String(), "\nprivid_chunk_cache_declined_total 0\n")
		if st := e.CacheStats(); zero == tc.declined || (st.Declined > 0) != tc.declined {
			t.Errorf("%d-byte tier: declined family at zero = %v, stats %+v; want declines %v", tc.cacheBytes, zero, st, tc.declined)
		}
	}
}

// TestMetricsDenialAndDisable covers the denied outcome counter and the
// DisableMetrics escape hatch.
func TestMetricsDenialAndDisable(t *testing.T) {
	e := newFleetEngine(t, Options{Seed: 1}, 1, 0.05)
	prog, err := query.Parse(strings.Replace(fleetQuery, "camA, camB, camC", "camA", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog); err == nil {
		t.Fatal("expected denial")
	}
	var b strings.Builder
	if _, err := e.Metrics().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `privid_queries_total{outcome="denied"} 1`) {
		t.Error("denied outcome not counted")
	}

	d := newFleetEngine(t, Options{Seed: 1, DisableMetrics: true}, 1, 10)
	if d.Metrics() != nil {
		t.Error("DisableMetrics engine still has a registry")
	}
	if _, err := d.Execute(prog); err != nil {
		t.Fatalf("uninstrumented execute: %v", err)
	}
	if _, _, err := d.ExecuteTraced(&Prepared{Program: prog}, nil); err != nil {
		t.Fatalf("traced execute without metrics: %v", err)
	}
}

// TestCloseFlushesMetricsSnapshot pins the graceful-shutdown contract:
// Close writes a final exposition to StateDir/metrics.prom, and the
// registry stays scrapeable after Close (collectors must tolerate a
// closed WAL and idle engine).
func TestCloseFlushesMetricsSnapshot(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Seed: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  countScene(10).Source("camA"),
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(strings.Replace(fleetQuery, "camA, camB, camC", "camA", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
	if _, err := obs.CheckExposition(strings.NewReader(string(b))); err != nil {
		t.Fatalf("final snapshot invalid: %v", err)
	}
	if !strings.Contains(string(b), `privid_queries_total{outcome="ok"} 1`) {
		t.Error("final snapshot lost the query counter")
	}
	if !strings.Contains(string(b), "privid_wal_snapshots_total") {
		t.Error("final snapshot lacks WAL families")
	}

	// Post-Close scrape must still work cleanly.
	var after strings.Builder
	if _, err := e.Metrics().WriteTo(&after); err != nil {
		t.Fatalf("post-Close scrape: %v", err)
	}
	if _, err := obs.CheckExposition(strings.NewReader(after.String())); err != nil {
		t.Fatalf("post-Close exposition invalid: %v", err)
	}
}
