package server

import (
	"net/http/httptest"
	"testing"

	"privid/internal/query"
)

// Submissions go through the engine's program cache: a resubmitted
// text is a hit (core's TestParseCacheSharesPrograms pins that the hit
// shares the first Prepared, program and tag). A parse error is never
// cached: it is returned afresh, and byte-identical, on every
// submission. A finished job keeps no program.
func TestParseCacheSharesPrograms(t *testing.T) {
	engine := newTestEngine(t)
	sched := NewScheduler(engine, SchedulerOptions{Workers: 1})
	defer sched.Close()
	ts := httptest.NewServer(NewAPI(engine, sched))
	defer ts.Close()
	var ids []string
	for _, analyst := range []string{"alice", "bob"} {
		id, err := sched.Submit(analyst, testQuery)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	const bad = "SPLIT campus BEGIN nope"
	_, want := query.Parse(bad)
	for range 2 {
		if _, err := sched.Submit("alice", bad); err == nil || err.Error() != want.Error() {
			t.Fatalf("bad submission: %v, want %v", err, want)
		}
	}
	if st := sched.Stats(); st.ParseCacheHits != 1 || st.ParseCacheMisses != 3 {
		t.Fatalf("parse cache %d hits, %d misses; want 1, 3", st.ParseCacheHits, st.ParseCacheMisses)
	}
	for _, id := range ids {
		pollJob(t, ts.URL, id)
		sched.mu.Lock()
		prep := sched.jobs[id].prep
		sched.mu.Unlock()
		if prep != nil {
			t.Fatalf("finished job %s still holds its program", id)
		}
	}
}

// Each prepared-program family moves when its cache is used: a repeat
// submission is a parse-cache hit and a planner-memo hit, a new text a
// miss of both, and a parse error a parse-cache miss.
func TestPreparedFamiliesMove(t *testing.T) {
	engine := newTestEngine(t)
	sched := NewScheduler(engine, SchedulerOptions{Workers: 1})
	defer sched.Close()
	ts := httptest.NewServer(NewAPI(engine, sched))
	defer ts.Close()
	before := samples(t, ts.URL)
	for range 2 {
		id, err := sched.Submit("alice", testQuery)
		if err != nil {
			t.Fatal(err)
		}
		pollJob(t, ts.URL, id)
	}
	if _, err := sched.Submit("alice", "SPLIT"); err == nil {
		t.Fatal("a bad query parsed")
	}
	after := samples(t, ts.URL)
	for name, want := range map[string]float64{
		"privid_parse_cache_hits_total":   1,
		"privid_parse_cache_misses_total": 2,
		"privid_plan_memo_hits_total":     1,
		"privid_plan_memo_misses_total":   1,
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %v, want %v", name, got, want)
		}
	}
}
