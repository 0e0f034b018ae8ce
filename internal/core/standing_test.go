package core

import (
	"sync"
	"testing"
	"time"

	"privid/internal/policy"
	"privid/internal/query"
)

const standingQuery = `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/10:00am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM (SELECT bin(chunk, 3600) AS hr FROM t) GROUP BY hr;`

func TestStandingQueryIncrementalReleases(t *testing.T) {
	s := countScene(200)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 10)
	prog, err := query.Parse(standingQuery)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := e.Standing(prog)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC)

	// Nothing has elapsed yet.
	res, err := sq.Advance(start.Add(30 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 0 {
		t.Fatalf("early advance released %d values", len(res.Releases))
	}

	// The first hour completes.
	res, err = sq.Advance(start.Add(61 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 1 {
		t.Fatalf("after 1h: %d releases, want 1", len(res.Releases))
	}
	if res.Releases[0].Raw != 60 { // one entrant per minute
		t.Errorf("hour-0 raw=%v, want 60", res.Releases[0].Raw)
	}

	// Re-advancing to the same point releases nothing new (and
	// consumes nothing).
	res, err = sq.Advance(start.Add(61 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 0 || res.EpsilonSpent != 0 {
		t.Fatalf("idempotent advance released %d values, spent %v", len(res.Releases), res.EpsilonSpent)
	}

	// Jumping to the end releases the remaining three hours at once.
	res, err = sq.Advance(start.Add(5 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 3 {
		t.Fatalf("final advance: %d releases, want 3", len(res.Releases))
	}
	if sq.Released() != 4 {
		t.Errorf("Released()=%d, want 4", sq.Released())
	}
}

func TestStandingQueryBudgetChargedOnce(t *testing.T) {
	s := countScene(200)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 10)
	prog, err := query.Parse(standingQuery)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := e.Standing(prog)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC)
	for i := 1; i <= 8; i++ {
		if _, err := sq.Advance(start.Add(time.Duration(i) * 30 * time.Minute)); err != nil {
			t.Fatalf("advance %d: %v", i, err)
		}
	}
	// Each frame of hour 0 was charged exactly once, by its own
	// release (0.25 of the default 1.0 split across 4 buckets).
	rem, err := e.Remaining("camA", 10000) // frame within hour 0
	if err != nil {
		t.Fatal(err)
	}
	if rem != 10-0.25 {
		t.Errorf("remaining=%v, want 9.75 (single charge)", rem)
	}
}

// TestStandingQueryConcurrentAdvance is the regression test for the
// Advance race: unsynchronized concurrent Advance calls raced on the
// released map and newly slice, and could both see the same elapsed
// bucket as unreleased — emitting and charging it twice. Run under
// -race; the exactly-once assertions below catch the double-release
// even without the race detector.
func TestStandingQueryConcurrentAdvance(t *testing.T) {
	s := countScene(200)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 10)
	prog, err := query.Parse(standingQuery)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := e.Standing(prog)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC)

	// 8 goroutines advance to the same instant: all four hourly
	// buckets have elapsed, and across every result each bucket must
	// appear exactly once.
	const workers = 8
	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := sq.Advance(start.Add(5 * time.Hour))
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			results[w] = res
		}(w)
	}
	wg.Wait()

	total, eps := 0, 0.0
	for _, res := range results {
		if res == nil {
			continue
		}
		total += len(res.Releases)
		eps += res.EpsilonSpent
	}
	if total != 4 {
		t.Errorf("concurrent advances released %d buckets in total, want 4 (exactly once)", total)
	}
	if sq.Released() != 4 {
		t.Errorf("Released()=%d, want 4", sq.Released())
	}
	// Budget side of exactly-once: hour 0's frames carry a single 0.25
	// charge (the default ε=1 split across 4 buckets), not one per
	// racing worker.
	rem, err := e.Remaining("camA", 10000)
	if err != nil {
		t.Fatal(err)
	}
	if rem != 10-0.25 {
		t.Errorf("remaining=%v, want 9.75 (single charge)", rem)
	}
}

func TestStandingQueryDenialRetry(t *testing.T) {
	s := countScene(200)
	// Budget allows the per-bucket charge (0.25) but we drain hour 2
	// (8-9am) first with a one-off query. The standing query's hour-0
	// bucket is then fine, but the hour-1 bucket's rho margin reaches
	// into the drained hour and is denied — verify the denial did not
	// mark hour 1 as released.
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 1)
	drain := `
SPLIT camA BEGIN 03-15-2021/8:00am END 03-15-2021/9:00am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.9;`
	progDrain, err := query.Parse(drain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(progDrain); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(standingQuery)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := e.Standing(prog)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC)
	// Hour 0 fits (0.25 <= 1.0 budget)...
	res, err := sq.Advance(start.Add(61 * time.Minute))
	if err != nil {
		t.Fatalf("hour-0 advance: %v", err)
	}
	if len(res.Releases) != 1 {
		t.Fatalf("hour-0 releases=%d", len(res.Releases))
	}
	// ...hour 1 is denied (0.9 + 0.25 > 1.0), atomically.
	if _, err := sq.Advance(start.Add(2*time.Hour + time.Minute)); err == nil {
		t.Fatalf("hour-1 advance should be denied")
	}
	// The denial must not have marked hour 1 released.
	if sq.Released() != 1 {
		t.Errorf("Released()=%d after denial, want 1", sq.Released())
	}
}

// TestStandingQueryRestartChaos is the crash-recovery half of the
// standing-query contract: releases and charges stay exactly-once even
// when the engine restarts between windows while concurrent Advance
// calls race. Incarnation 1 races 8 workers to the hour-0 boundary,
// the engine is closed and reopened over the same WAL, the released
// set is restored (the serving layer's responsibility — see
// internal/sim for the full-stack version), and incarnation 2 races 8
// workers to the end. Every hourly bucket must be released exactly
// once across both incarnations and every frame charged exactly once.
func TestStandingQueryRestartChaos(t *testing.T) {
	dir := t.TempDir()
	s := countScene(200)
	open := func() *Engine {
		t.Helper()
		e, err := Open(Options{Seed: 1, Evaluation: true, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterCamera(CameraConfig{
			Name:    "camA",
			Source:  s.Source("camA"),
			Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
			Epsilon: 10,
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Registry().Register("counter", countNewEntrants); err != nil {
			t.Fatal(err)
		}
		return e
	}
	prog, err := query.Parse(standingQuery)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC)

	race := func(sq *StandingQuery, at time.Time) map[string]int {
		t.Helper()
		const workers = 8
		var mu sync.Mutex
		seen := map[string]int{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := sq.Advance(at)
				if err != nil {
					t.Errorf("advance to %v: %v", at, err)
					return
				}
				mu.Lock()
				for _, rel := range res.Releases {
					seen[rel.Key.Key()]++
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
		return seen
	}

	e1 := open()
	sq1, err := e1.Standing(prog)
	if err != nil {
		t.Fatal(err)
	}
	first := race(sq1, start.Add(61*time.Minute))
	if len(first) != 1 {
		t.Fatalf("incarnation 1 released %d buckets, want 1 (hour 0)", len(first))
	}
	keys := sq1.ReleasedKeys()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := open()
	defer e2.Close()
	sq2, err := e2.Standing(prog)
	if err != nil {
		t.Fatal(err)
	}
	sq2.RestoreReleased(keys...)
	second := race(sq2, start.Add(5*time.Hour))

	// Exactly-once across incarnations: 4 distinct buckets, none
	// released twice, none re-released after the restart.
	all := map[string]int{}
	for k, n := range first {
		all[k] += n
	}
	for k, n := range second {
		all[k] += n
	}
	if len(all) != 4 {
		t.Errorf("released %d distinct buckets across restart, want 4", len(all))
	}
	for k, n := range all {
		if n != 1 {
			t.Errorf("bucket %q released %d times across restart, want 1", k, n)
		}
	}

	// Exactly-once charges: the recovered hour-0 charge survived the
	// restart and was not duplicated; hours 1-3 carry exactly one
	// post-restart charge each (0.25 = default ε 1.0 over 4 buckets).
	for hour := int64(0); hour < 4; hour++ {
		rem, err := e2.Remaining("camA", hour*36000+10000)
		if err != nil {
			t.Fatal(err)
		}
		if rem != 10-0.25 {
			t.Errorf("hour %d: remaining=%v, want 9.75 (single charge across restart)", hour, rem)
		}
	}
}
