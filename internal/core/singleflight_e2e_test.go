package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/table"
	"privid/internal/video"
)

const singleflightQuery = `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:05am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING slowone TIMEOUT 5sec PRODUCING 5 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t;`

// newSingleflightEngine builds an engine whose "slowone" executable
// emits one row per chunk after a short sleep (long enough that
// concurrent cold queries overlap in flight) and counts its
// executions.
func newSingleflightEngine(t *testing.T, execs *atomic.Int64) *Engine {
	t.Helper()
	e := New(Options{Seed: 1, Evaluation: true})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  countScene(10).Source("camA"),
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("slowone", func(chunk *video.Chunk) []table.Row {
		execs.Add(1)
		time.Sleep(20 * time.Millisecond)
		return []table.Row{{table.N(1)}}
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSingleflightConcurrentColdQueries is the tentpole's e2e
// contract: 8 identical queries racing against a cold cache execute
// the sandbox exactly once per chunk — every other lookup is a cache
// hit or a singleflight follower sharing the leader's frozen block.
// Run under -race (followers share tables by pointer).
func TestSingleflightConcurrentColdQueries(t *testing.T) {
	var execs atomic.Int64
	e := newSingleflightEngine(t, &execs)
	prog, err := query.Parse(singleflightQuery)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const chunks = 10 // 5 min / 30 s
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]*Result, workers)
	traces := make([]*obs.Trace, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			results[w], traces[w], errs[w] = e.ExecuteTraced(&Prepared{Program: prog, Tag: fmt.Sprintf("sf-%d", w)}, nil)
		}(w)
	}
	close(start)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// The heart of the contract: one sandbox execution per chunk,
	// total, across all 8 queries.
	if got := execs.Load(); got != chunks {
		t.Errorf("sandbox executed %d times, want %d (once per chunk)", got, chunks)
	}
	var buf strings.Builder
	if _, err := e.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	if want := fmt.Sprintf(`privid_sandbox_runs_total{result="clean"} %d`, chunks); !strings.Contains(exposition, want) {
		t.Errorf("exposition missing %q", want)
	}

	// Flow accounting: each of the 80 chunk lookups resolved as
	// exactly one of partial-state hit (the COUNT(*) pushes down, so a
	// worker arriving after another folded the chunk skips the sandbox
	// path entirely), table cache hit, singleflight follower, or
	// singleflight leader (leaders that found the block already
	// published re-served it from the cache without executing).
	// Nothing failed, so no handoffs and no abandoned waits.
	fs := e.FlightStats()
	cs := e.CacheStats()
	if cs.Hits+cs.StateHits+fs.Followers+fs.Leaders != workers*chunks {
		t.Errorf("hits(%d) + stateHits(%d) + followers(%d) + leaders(%d) != %d lookups",
			cs.Hits, cs.StateHits, fs.Followers, fs.Leaders, workers*chunks)
	}
	if fs.Followers == 0 {
		t.Errorf("no followers despite 8 overlapping cold queries")
	}
	if fs.Handoffs != 0 || fs.Timeouts != 0 {
		t.Errorf("clean run recorded handoffs=%d timeouts=%d", fs.Handoffs, fs.Timeouts)
	}
	if fs.Waiting != 0 {
		t.Errorf("%d followers still waiting after all queries returned", fs.Waiting)
	}
	for _, name := range []string{
		"privid_chunk_singleflight_leaders_total",
		"privid_chunk_singleflight_followers_total",
		"privid_chunk_singleflight_handoffs_total",
		"privid_chunk_singleflight_timeouts_total",
		"privid_chunk_singleflight_waiting",
		"privid_chunk_cache_puts_total",
	} {
		if !strings.Contains(exposition, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	if want := fmt.Sprintf("privid_chunk_cache_puts_total %d", chunks); !strings.Contains(exposition, want) {
		t.Errorf("exposition missing %q (fallback rows must not be stored)", want)
	}

	// The shard trace spans carry the follower tallies; summed over
	// every query's trace they must agree with the engine counter.
	var spanFollowers float64
	for _, tr := range traces {
		for _, sh := range findSpans(tr.Tree(), "shard") {
			spanFollowers += attrNum(t, sh, "singleflight_followers")
			if n := attrNum(t, sh, "singleflight_handoffs"); n != 0 {
				t.Errorf("clean run traced %v handoffs", n)
			}
		}
	}
	if spanFollowers != float64(fs.Followers) {
		t.Errorf("trace followers = %v, FlightStats.Followers = %d", spanFollowers, fs.Followers)
	}

	// Shared-by-pointer correctness: every query aggregated the same
	// intermediate rows, so every raw (pre-noise) count is identical.
	for w, res := range results {
		if len(res.Releases) != 1 {
			t.Fatalf("worker %d: %d releases", w, len(res.Releases))
		}
		if res.Releases[w%1].Raw != results[0].Releases[0].Raw {
			t.Errorf("worker %d raw=%v, worker 0 raw=%v (tables diverged)",
				w, res.Releases[0].Raw, results[0].Releases[0].Raw)
		}
	}
}

// TestSingleflightLeaderFailureHandoff drives the cancellation-safe
// handoff end to end: a leader whose execution panics (an unclean
// sandbox run) publishes nothing; a waiting follower is promoted,
// re-executes cleanly, and serves the result. The failed leader's
// query still completes (with the sandbox's fallback rows) and the
// followers are never wedged. Run under -race.
func TestSingleflightLeaderFailureHandoff(t *testing.T) {
	var execs atomic.Int64
	firstStarted := make(chan struct{})
	releaseFirst := make(chan struct{})
	e := New(Options{Seed: 1, Evaluation: true})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  countScene(10).Source("camA"),
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 100,
	}); err != nil {
		t.Fatal(err)
	}
	// First execution blocks until the test has a follower waiting,
	// then panics; the retry succeeds.
	if err := e.Registry().Register("flaky", func(chunk *video.Chunk) []table.Row {
		if execs.Add(1) == 1 {
			close(firstStarted)
			<-releaseFirst
			panic("induced first-execution failure")
		}
		return []table.Row{{table.N(1)}}
	}); err != nil {
		t.Fatal(err)
	}
	const oneChunk = `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:01am
  BY TIME 60sec STRIDE 0sec INTO chunks;
PROCESS chunks USING flaky TIMEOUT 5sec PRODUCING 5 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT SUM(range(one, 0, 1)) FROM t CONSUMING 0.2;`
	prog, err := query.Parse(oneChunk)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *Result
		err error
	}
	leaderDone := make(chan outcome, 1)
	followerDone := make(chan outcome, 1)
	go func() {
		res, err := e.Execute(prog)
		leaderDone <- outcome{res, err}
	}()
	<-firstStarted
	go func() {
		res, err := e.Execute(prog)
		followerDone <- outcome{res, err}
	}()
	// Only release the leader into its panic once the second query is
	// provably waiting on it, so the promotion path (not a fresh
	// flight) is what serves the follower.
	deadline := time.Now().Add(10 * time.Second)
	for e.FlightStats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never started waiting on the leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(releaseFirst)

	lead := <-leaderDone
	foll := <-followerDone
	if lead.err != nil {
		t.Fatalf("leader query failed: %v", lead.err)
	}
	if foll.err != nil {
		t.Fatalf("follower query failed: %v", foll.err)
	}
	// The leader's sandbox panicked: its table is the fallback default
	// row (one=0, so SUM=0). The promoted follower re-executed
	// cleanly: one row with one=1.
	if lead.res.Releases[0].Raw != 0 {
		t.Errorf("leader raw=%v, want 0 (fallback default row)", lead.res.Releases[0].Raw)
	}
	if foll.res.Releases[0].Raw != 1 {
		t.Errorf("follower raw=%v, want 1 (clean re-execution)", foll.res.Releases[0].Raw)
	}
	if got := execs.Load(); got != 2 {
		t.Errorf("executions=%d, want 2 (failed leader + promoted follower)", got)
	}
	fs := e.FlightStats()
	if fs.Handoffs != 1 {
		t.Errorf("handoffs=%d, want exactly 1", fs.Handoffs)
	}
	if fs.Timeouts != 0 {
		t.Errorf("timeouts=%d, want 0", fs.Timeouts)
	}
	// The clean retry was published and cached: a third query is pure
	// cache hits, no executions.
	if _, err := e.Execute(prog); err != nil {
		t.Fatalf("warm query failed: %v", err)
	}
	if got := execs.Load(); got != 2 {
		t.Errorf("warm query re-executed the sandbox (execs=%d)", got)
	}
}
