package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/dp"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

const concurrentQuery = `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.2;`

// Budget admission must stay atomic when many goroutines Execute the
// same program at once: with a per-frame budget of 1.0 and 0.2 per
// query, exactly 5 of 25 concurrent queries may be admitted, no matter
// how they interleave. Run under -race.
func TestConcurrentExecuteBudgetAtomicity(t *testing.T) {
	s := countScene(10)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 1.0)
	prog, err := query.Parse(concurrentQuery)
	if err != nil {
		t.Fatal(err)
	}

	const n = 25
	var wg sync.WaitGroup
	outcomes := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outcomes[i] = e.Execute(prog)
		}(i)
	}
	wg.Wait()

	admitted := 0
	for _, err := range outcomes {
		if err == nil {
			admitted++
			continue
		}
		var exhausted *dp.ErrBudgetExhausted
		if !errors.As(err, &exhausted) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if admitted != 5 {
		t.Fatalf("admitted %d of %d queries, want exactly 5 (1.0 / 0.2)", admitted, n)
	}

	// The ledger spent exactly what the admitted queries paid.
	rem, err := e.Remaining("camA", 100)
	if err != nil {
		t.Fatal(err)
	}
	if rem > 1e-9 {
		t.Fatalf("remaining=%v, want 0 after 5 admissions of 0.2", rem)
	}

	// Every attempt is in the audit log, denied or not.
	log := e.AuditLog()
	ok, denied := 0, 0
	for _, entry := range log {
		if entry.Denied {
			denied++
		} else {
			ok++
		}
	}
	if ok != 5 || denied != n-5 {
		t.Fatalf("audit: %d ok, %d denied; want 5 and %d", ok, denied, n-5)
	}
}

// runProcessTable materializes the intermediate table of the program's
// single SPLIT/PROCESS pair.
func runProcessTable(t *testing.T, e *Engine, prog *query.Program) string {
	t.Helper()
	plan := resolveSet(t, e, prog)
	inst, _ := runProcessFor(t, e, prog.Processes[0], plan, nil)
	return inst.Data.String()
}

// A warm cache must hand back byte-identical intermediate tables: the
// whole privacy analysis treats the table as a deterministic function
// of (video, executable, contract), and the cache may not perturb it.
func TestChunkCacheByteIdenticalTables(t *testing.T) {
	s := countScene(10)
	prog, err := query.Parse(concurrentQuery)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.Policy{Rho: 25 * time.Second, K: 1}

	cached := newTestEngine(t, s, pol, 1e6)
	cold := runProcessTable(t, cached, prog)
	if st := cached.CacheStats(); st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("cold run stats = %+v", st)
	}
	warm := runProcessTable(t, cached, prog)
	if st := cached.CacheStats(); st.Hits == 0 {
		t.Fatalf("warm run produced no hits: %+v", st)
	}
	if cold != warm {
		t.Fatalf("warm table differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	// And identical to an engine with caching disabled outright.
	uncachedEngine := New(Options{Seed: 1, Evaluation: true, ChunkCacheBytes: -1})
	seedEngine(t, uncachedEngine, s, pol, 1e6)
	uncached := runProcessTable(t, uncachedEngine, prog)
	if uncached != cold {
		t.Fatalf("cache-disabled table differs:\n%s\nvs\n%s", uncached, cold)
	}
	if st := uncachedEngine.CacheStats(); st.MaxBytes != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache reported activity: %+v", st)
	}
}

// An overlapping SPLIT window on the same chunk grid must reuse the
// chunks it shares with an earlier window instead of re-processing
// them.
func TestChunkCacheOverlappingWindows(t *testing.T) {
	s := countScene(10)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 1e6)
	first, err := query.Parse(concurrentQuery)
	if err != nil {
		t.Fatal(err)
	}
	runProcessTable(t, e, first)
	misses := e.CacheStats().Misses

	// Shifted by 10 minutes: half its 30-second chunks coincide with
	// chunks of the first window at the same absolute frames.
	shifted, err := query.Parse(`
SPLIT camA BEGIN 03-15-2021/6:10am END 03-15-2021/6:40am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.2;`)
	if err != nil {
		t.Fatal(err)
	}
	runProcessTable(t, e, shifted)
	st := e.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("overlapping window produced no cache hits: %+v", st)
	}
	// Only the 10 minutes of new video should have missed.
	newMisses := st.Misses - misses
	if want := int64(10 * 2); int64(newMisses) != want {
		t.Fatalf("overlapping window missed %d chunks, want %d (the non-overlap)", newMisses, want)
	}
}

// Options.Parallelism bounds sandbox executions engine-wide: many
// queries executing concurrently must never have more than Parallelism
// chunks inside executables at once, or serving-layer load would push
// executables past their wall-clock TIMEOUT.
func TestParallelismBoundsEngineWide(t *testing.T) {
	s := countScene(10)
	e := New(Options{Seed: 1, Parallelism: 2, ChunkCacheBytes: -1})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  &video.SceneSource{Camera: "camA", Scene: s},
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 1e6,
	}); err != nil {
		t.Fatal(err)
	}
	var cur, max atomic.Int32
	if err := e.Registry().Register("counter", func(chunk *video.Chunk) []table.Row {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return countNewEntrants(chunk)
	}); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(concurrentQuery)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Execute(prog); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := max.Load(); got > 2 {
		t.Fatalf("observed %d concurrent sandbox executions, Parallelism is 2", got)
	}
}

// A timed-out executable must keep holding its Parallelism slot until
// it actually exits: releasing on RunChecked's return would let leaked
// executions accumulate past the engine-wide bound.
func TestTimedOutExecutableHoldsParallelismSlot(t *testing.T) {
	s := countScene(10)
	e := New(Options{Seed: 1, Parallelism: 1, ChunkCacheBytes: -1})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  &video.SceneSource{Camera: "camA", Scene: s},
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 1e6,
	}); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var calls atomic.Int32
	if err := e.Registry().Register("counter", func(chunk *video.Chunk) []table.Row {
		if calls.Add(1) == 1 {
			<-gate // overrun TIMEOUT 1sec and keep running
		}
		return []table.Row{{table.N(1)}}
	}); err != nil {
		t.Fatal(err)
	}
	// Two chunks, processed serially at Parallelism 1.
	prog, err := query.Parse(`
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:01am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 1sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.2;`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Execute(prog)
		done <- err
	}()
	// Well past the first chunk's timeout: the leaked execution still
	// holds the only slot, so the second chunk must not have started.
	time.Sleep(2 * time.Second)
	if got := calls.Load(); got != 1 {
		t.Fatalf("second chunk started while a timed-out execution held the slot (calls=%d)", got)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("calls=%d after drain, want 2", got)
	}
}

// A ProcessFunc that never returns must not wedge the engine: after
// the grace period its slot is forfeited and other chunks proceed.
func TestHungExecutableForfeitsSlotAfterGrace(t *testing.T) {
	s := countScene(10)
	e := New(Options{Seed: 1, Parallelism: 1, ChunkCacheBytes: -1})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  &video.SceneSource{Camera: "camA", Scene: s},
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 1e6,
	}); err != nil {
		t.Fatal(err)
	}
	hang := make(chan struct{}) // never closed during the query
	defer close(hang)           // unblock the leaked goroutine at test end
	var calls atomic.Int32
	if err := e.Registry().Register("counter", func(chunk *video.Chunk) []table.Row {
		if calls.Add(1) == 1 {
			<-hang
		}
		return []table.Row{{table.N(1)}}
	}); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(`
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:01am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 0.2sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.2;`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Execute(prog)
		done <- err
	}()
	// Timeout 0.2s + grace 4×0.2s = the hung chunk forfeits its slot
	// around 1s; the whole query must complete well before 10s.
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine wedged behind a non-terminating executable")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("calls=%d, want 2 (second chunk after grace)", got)
	}
}

// A sandbox failure (timeout/panic → default row) depends on machine
// load, not on the chunk, so it must never be cached: the next query
// over the same chunk re-executes and gets the real rows.
func TestChunkCacheSkipsFailedRuns(t *testing.T) {
	s := countScene(10)
	e := New(Options{Seed: 1, Evaluation: true})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  &video.SceneSource{Camera: "camA", Scene: s},
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 1e6,
	}); err != nil {
		t.Fatal(err)
	}
	// Panics on every invocation of the first run, then behaves. (A
	// conforming ProcessFunc is stateless; this stands in for a
	// transient overload tripping the TIMEOUT.)
	var mu sync.Mutex
	failing := true
	if err := e.Registry().Register("counter", func(chunk *video.Chunk) []table.Row {
		mu.Lock()
		fail := failing
		mu.Unlock()
		if fail {
			panic("transient overload")
		}
		return countNewEntrants(chunk)
	}); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(concurrentQuery)
	if err != nil {
		t.Fatal(err)
	}

	failed := runProcessTable(t, e, prog)
	mu.Lock()
	failing = false
	mu.Unlock()
	recovered := runProcessTable(t, e, prog)

	if st := e.CacheStats(); st.Hits != 0 {
		t.Fatalf("failed runs were served from cache: %+v", st)
	}
	if failed == recovered {
		t.Fatal("second run still returned the failure-default table")
	}
	healthy := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 1e6)
	if want := runProcessTable(t, healthy, prog); recovered != want {
		t.Fatalf("post-recovery table wrong:\n%s\nwant:\n%s", recovered, want)
	}
}

// With the cache enabled, concurrent executions racing on the same
// chunks (run under -race) must all see the same pre-noise aggregate.
func TestConcurrentExecuteCacheConsistency(t *testing.T) {
	s := countScene(10)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 1e6)
	prog, err := query.Parse(concurrentQuery)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	raws := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Execute(prog)
			if err != nil {
				t.Error(err)
				return
			}
			raws[i] = res.Releases[0].Raw
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < n; i++ {
		if raws[i] != raws[0] {
			t.Fatalf("raw[%d]=%v differs from raw[0]=%v", i, raws[i], raws[0])
		}
	}
}

// Released values and ε accounting must be bit-identical between a
// cache-enabled engine (including warm repeats) and a cache-disabled
// one: the cache may only ever change how fast answers arrive.
func TestCacheInvisibleToReleasesAndAccounting(t *testing.T) {
	pol := policy.Policy{Rho: 25 * time.Second, K: 1}
	run := func(cacheBytes int64) (*Engine, []Result) {
		s := countScene(10)
		e := New(Options{Seed: 7, Evaluation: true, ChunkCacheBytes: cacheBytes})
		seedEngine(t, e, s, pol, 1e6)
		prog, err := query.Parse(concurrentQuery)
		if err != nil {
			t.Fatal(err)
		}
		var out []Result
		for i := 0; i < 3; i++ { // repeats 2 and 3 are warm when cached
			res, err := e.Execute(prog)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *res)
		}
		return e, out
	}

	cachedEngine, cached := run(0)      // default-sized cache
	uncachedEngine, uncached := run(-1) // disabled

	if st := cachedEngine.CacheStats(); st.Hits == 0 && st.StateHits == 0 {
		t.Fatalf("cached engine never hit: %+v", st)
	}
	for i := range cached {
		c, u := cached[i], uncached[i]
		if c.EpsilonSpent != u.EpsilonSpent {
			t.Fatalf("run %d: spent %v (cached) vs %v (uncached)", i, c.EpsilonSpent, u.EpsilonSpent)
		}
		for j := range c.Releases {
			cr, ur := c.Releases[j], u.Releases[j]
			if cr.Raw != ur.Raw || cr.Value != ur.Value || cr.Epsilon != ur.Epsilon ||
				cr.Sensitivity != ur.Sensitivity || cr.NoiseScale != ur.NoiseScale {
				t.Fatalf("run %d release %d differs:\ncached:   %+v\nuncached: %+v", i, j, cr, ur)
			}
		}
	}
	remC, err := cachedEngine.Remaining("camA", 100)
	if err != nil {
		t.Fatal(err)
	}
	remU, err := uncachedEngine.Remaining("camA", 100)
	if err != nil {
		t.Fatal(err)
	}
	if remC != remU {
		t.Fatalf("remaining budget differs: %v vs %v", remC, remU)
	}
}

// seedEngine registers countScene's camera and executable on an
// engine built with custom Options (newTestEngine hardcodes its own).
func seedEngine(t *testing.T, e *Engine, s *scene.Scene, pol policy.Policy, eps float64) {
	t.Helper()
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  &video.SceneSource{Camera: "camA", Scene: s},
		Policy:  pol,
		Epsilon: eps,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
}

// TestHungExecutableWithoutTimeoutReleasesSlot is the regression test
// for the unarmed grace backstop: the slot-forfeit timer was only
// armed when the statement carried TIMEOUT > 0, so a programmatically
// built Program with no timeout whose executable hung would block
// RunChecked forever and leak its Parallelism slot permanently —
// with Parallelism=1, wedging every later query on the engine. The
// engine now substitutes Options.DefaultProcessTimeout, so the first
// query falls back to default rows and the slot is reclaimed after
// the grace period.
func TestHungExecutableWithoutTimeoutReleasesSlot(t *testing.T) {
	s := countScene(5)
	e := New(Options{
		Seed:        1,
		Parallelism: 1, // one slot: a leak would wedge the engine
		// Small default so the test completes quickly; the point is
		// that it applies at all when TIMEOUT is absent.
		DefaultProcessTimeout: 50 * time.Millisecond,
		ChunkCacheBytes:       -1, // exercise the raw execution path
	})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  &video.SceneSource{Camera: "camA", Scene: s},
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	// An executable that never returns (the test intentionally leaks
	// its goroutine — that bounded leak instead of a wedged engine is
	// exactly the behavior under test).
	if err := e.Registry().Register("hang", func(chunk *video.Chunk) []table.Row {
		select {}
	}); err != nil {
		t.Fatal(err)
	}

	const oneChunk = `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:01am
  BY TIME 60sec STRIDE 0sec INTO chunks;
PROCESS chunks USING hang TIMEOUT 5sec PRODUCING 2 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.2;`
	prog, err := query.Parse(oneChunk)
	if err != nil {
		t.Fatal(err)
	}
	// The parser rejects TIMEOUT <= 0, so reproduce the library-caller
	// scenario: a parsed program whose timeout is then cleared.
	prog.Processes[0].Timeout = 0

	done := make(chan error, 1)
	go func() {
		_, err := e.Execute(prog)
		done <- err
	}()
	select {
	case err := <-done:
		// The hung chunk must degrade to the sandbox's fallback rows,
		// not an error.
		if err != nil {
			t.Fatalf("query over hung executable failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query over hung TIMEOUT-less executable never returned (slot wedged)")
	}

	// The grace backstop (slotGraceMultiple × the default timeout)
	// must reclaim the hung execution's slot: a normal query on the
	// same single-slot engine completes.
	prog2, err := query.Parse(concurrentQuery)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := e.Execute(prog2)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follow-up query failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follow-up query never got the parallelism slot back")
	}
}

// Concurrent cold queries over the same chunks of two cameras — the
// workers share blocks through the cache and its singleflight, and
// stamp and fold each chunk in a pooled scratch — release bit for bit
// the raw values the same programs release one at a time on a fresh
// engine: no scratch is shared between workers or outlives its chunk.
// The statements cover COUNT, grouped COUNT, SUM over range() behind a
// camera filter and a bin(chunk) grouping, over string and number
// columns. Run under -race.
func TestConcurrentColdFoldsMatchSerial(t *testing.T) {
	start := time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC)
	colors := []string{"red", "blue", "green"}
	engine := func() *Engine {
		e := New(Options{Seed: 1, Evaluation: true})
		for _, cam := range []string{"camA", "camB"} {
			src := &video.IntervalSource{Camera: cam, FPS: 2, Start: start, Frames: 2 * 3600}
			if err := e.RegisterCamera(CameraConfig{Name: cam, Source: src, Policy: policy.Policy{Rho: 25 * time.Second, K: 1}, Epsilon: 1e9}); err != nil {
				t.Fatal(err)
			}
		}
		// A pure function of the chunk: 0-3 rows of fresh strings.
		if err := e.Registry().Register("synth", func(c *video.Chunk) []table.Row {
			k := c.Interval.Start/60 + int64(len(c.Camera)+int(c.Camera[3]))
			rows := make([]table.Row, k%4)
			for i := range rows {
				j := k + int64(i)
				rows[i] = table.Row{table.S(strings.Clone(colors[j%3])), table.N(float64(j*7%80) - 10)}
			}
			return rows
		}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	var progs []*query.Program
	for w := 0; w < 8; w++ {
		begin := start.Add(time.Duration(w*5) * time.Minute)
		prog, err := query.Parse(fmt.Sprintf(`
SPLIT camA, camB BEGIN %s END %s BY TIME 30sec STRIDE 0sec INTO c;
PROCESS c USING synth TIMEOUT 5sec PRODUCING 4 ROWS WITH SCHEMA (color:STRING="", speed:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.01;
SELECT color, COUNT(*) FROM t GROUP BY color WITH KEYS ["red","blue"] CONSUMING 0.01;
SELECT SUM(range(speed, 0, 50)) FROM (SELECT * FROM t WHERE camera = "camB") CONSUMING 0.01;
SELECT COUNT(*) FROM (SELECT bin(chunk, 600) AS b FROM t) GROUP BY b CONSUMING 0.01;`,
			begin.Format("01-02-2006/3:04pm"), begin.Add(20*time.Minute).Format("01-02-2006/3:04pm")))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	raws := func(res *Result) []uint64 {
		var out []uint64
		for _, r := range res.Releases {
			out = append(out, math.Float64bits(r.Raw))
		}
		return out
	}

	serial, want := engine(), make([][]uint64, len(progs))
	for i, prog := range progs {
		res, err := serial.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = raws(res)
	}
	if ps := serial.PartialStats(); ps.Plans != uint64(4*len(progs)) || ps.Declined != 0 || ps.Folds == 0 {
		t.Fatalf("every statement must fold: %+v", ps)
	}
	concurrent, got := engine(), make([][]uint64, len(progs))
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ { // cold, then over the shared cache
		for i, prog := range progs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := concurrent.Execute(prog)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = raws(res)
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: concurrent raw releases differ from serial:\n got %v\nwant %v", round, got, want)
		}
	}
}
