package core

// Tests of the per-chunk hot path: the bounded fan-out helper, the
// compact cache keys, and the allocation budget of a warm query.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

// goroutineID parses the running goroutine's id out of its stack
// header — test-only, to tell inline calls from worker calls.
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, err := strconv.ParseUint(string(bytes.Fields(buf)[1]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// The helper visits every index exactly once from at most par
// goroutines (never more than there are chunks), and runs on the
// caller alone when par <= 1 or there is one chunk. Run under -race.
func TestForEachChunkBoundedExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, par int }{
		{0, 4}, {1, 4}, {7, 0}, {7, 1}, {7, 2}, {100, 3}, {5, 16}, {64, 64},
	} {
		visits := make([]atomic.Int32, tc.n)
		var running, peak atomic.Int32
		var mu sync.Mutex
		workers := map[uint64]bool{}
		forEachChunk(tc.n, tc.par, func(i int) {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			visits[i].Add(1)
			mu.Lock()
			workers[goroutineID()] = true
			mu.Unlock()
			runtime.Gosched() // let the other workers overlap
			running.Add(-1)
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("n=%d par=%d: index %d visited %d times", tc.n, tc.par, i, got)
			}
		}
		bound := max(1, min(tc.par, tc.n))
		if int(peak.Load()) > bound || len(workers) > bound {
			t.Fatalf("n=%d par=%d: %d concurrent calls on %d goroutines, bound %d", tc.n, tc.par, peak.Load(), len(workers), bound)
		}
		if bound == 1 && tc.n > 0 && !workers[goroutineID()] {
			t.Fatalf("n=%d par=%d: did not run inline on the caller", tc.n, tc.par)
		}
	}
}

// Indices are claimed one at a time: a chunk that blocks (a hung
// executable) holds its own worker and nothing else — every other chunk
// still starts, on the remaining workers, without waiting for it.
func TestForEachChunkSlowChunkStrandsNothing(t *testing.T) {
	const n, par = 9, 2
	var others sync.WaitGroup
	others.Add(n - 1)
	othersDone := make(chan struct{})
	go func() {
		others.Wait()
		close(othersDone)
	}()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		forEachChunk(n, par, func(i int) {
			if i == 0 {
				<-othersDone // "hangs" until every other chunk has run
				return
			}
			others.Done()
		})
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("chunks were stranded behind a blocked one")
	}
}

// Flipping any identity field — and nothing else — changes the key;
// table and state keys never collide; every key has the fixed compact
// length.
func TestChunkKeyIdentity(t *testing.T) {
	type identity struct {
		camera, mask, scheme, region, using string
		timeout                             time.Duration
		maxRows                             int
		cols                                []table.Column
		chunkF, strideF                     int64
		iv                                  vtime.Interval
		planID                              string
	}
	base := func() identity {
		return identity{
			camera: "camA", mask: "m1", scheme: "lanes", region: "left", using: "counter",
			timeout: 5 * time.Second, maxRows: 20,
			cols: []table.Column{
				{Name: "one", Type: table.DNumber, Default: table.N(0)},
				{Name: "tag", Type: table.DString, Default: table.S("x")},
			},
			chunkF: 300, strideF: 0, iv: vtime.NewInterval(600, 900), planID: "pps1|count",
		}
	}
	keys := func(id identity) (tableKey, stateKey string) {
		rendered := chunkIdentity(id.camera, id.mask, id.scheme, id.region, id.using,
			id.timeout, id.maxRows, table.MustSchema(id.cols...), id.chunkF, id.strideF)
		tk := chunkKey(keyPrefix(tableKeyKind, "", rendered), id.iv)
		sk := chunkKey(keyPrefix(stateKeyKind, id.planID, rendered), id.iv)
		return string(tk[:]), string(sk[:])
	}
	flips := map[string]func(*identity){
		"camera":         func(id *identity) { id.camera = "camB" },
		"mask":           func(id *identity) { id.mask = "" },
		"scheme":         func(id *identity) { id.scheme = "grid" },
		"region":         func(id *identity) { id.region = "right" },
		"executable":     func(id *identity) { id.using = "counter2" },
		"timeout":        func(id *identity) { id.timeout = 6 * time.Second },
		"max rows":       func(id *identity) { id.maxRows = 21 },
		"column name":    func(id *identity) { id.cols[0].Name = "uno" },
		"column type":    func(id *identity) { id.cols[0] = table.Column{Name: "one", Type: table.DString, Default: table.S("0")} },
		"column default": func(id *identity) { id.cols[1].Default = table.S("y") },
		"column added": func(id *identity) {
			id.cols = append(id.cols, table.Column{Name: "z", Type: table.DNumber, Default: table.N(0)})
		},
		"chunk":          func(id *identity) { id.chunkF = 301 },
		"stride":         func(id *identity) { id.strideF = 1 },
		"interval start": func(id *identity) { id.iv.Start-- },
		"interval end":   func(id *identity) { id.iv.End++ },
		// Field boundaries are quoted: moving a byte between
		// neighbouring fields is a different identity.
		"field boundary": func(id *identity) { id.camera, id.mask = "cam", "Am1" },
	}
	baseTable, baseState := keys(base())
	seen := map[string]string{baseTable: "base table", baseState: "base state"}
	if baseTable == baseState {
		t.Fatal("table and state key collide")
	}
	for name, flip := range flips {
		id := base()
		flip(&id)
		tk, sk := keys(id)
		for key, what := range map[string]string{tk: name + " table", sk: name + " state"} {
			if len(key) != chunkKeyLen {
				t.Fatalf("%s key is %d bytes, want %d", what, len(key), chunkKeyLen)
			}
			if prev, dup := seen[key]; dup {
				t.Fatalf("%s key collides with %s key", what, prev)
			}
			seen[key] = what
		}
	}
	// The plan ID is part of a state key's identity only.
	id := base()
	id.planID = "pps1|sum"
	tk, sk := keys(id)
	if tk != baseTable {
		t.Fatal("plan ID leaked into the table key")
	}
	if _, dup := seen[sk]; dup {
		t.Fatal("plan ID does not change the state key")
	}
	// Same identity, same key: the compaction is deterministic.
	if tk2, sk2 := keys(base()); tk2 != baseTable || sk2 != baseState {
		t.Fatal("identical identities produced different keys")
	}
}

// A fully warm pushdown query allocates nothing per chunk × plan: no
// key string (the key is filled on the worker's stack), no video.Chunk,
// no decoded state, no per-chunk goroutine, no per-split slot slice.
// Measured as the slope between a one-hour and a two-hour window, so
// the per-query fixed cost cancels.
func TestWarmPushdownAllocBudget(t *testing.T) {
	e := newTestEngine(t, countScene(50), policy.Policy{Rho: 25 * time.Second, K: 1}, 1e9)
	const plans = 2
	warmAllocs := func(end string) (allocs float64, chunks int) {
		prog, err := query.Parse(fmt.Sprintf(`
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/%s
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.001;
SELECT SUM(range(one, 0, 1)) FROM t CONSUMING 0.001;`, end))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := e.Execute(prog); err != nil {
				t.Fatal(err)
			}
		}
		run() // populate the state tier
		const runs = 20
		before := e.PartialStats()
		allocs = testing.AllocsPerRun(runs, run)
		after := e.PartialStats()
		if after.Folds != before.Folds || after.CachedChunks == before.CachedChunks {
			t.Fatalf("query to %s did not run warm: %+v -> %+v", end, before, after)
		}
		// AllocsPerRun calls run once more than it measures, to warm up.
		return allocs, int(after.CachedChunks-before.CachedChunks) / (runs + 1)
	}
	a1, c1 := warmAllocs("7:00am")
	a2, c2 := warmAllocs("8:00am")
	if c2 <= c1 {
		t.Fatalf("windows hold %d and %d chunks", c1, c2)
	}
	perChunkPlan := (a2 - a1) / float64((c2-c1)*plans)
	t.Logf("%d chunks: %.0f allocs; %d chunks: %.0f allocs; %.2f per chunk × plan", c1, a1, c2, a2, perChunkPlan)
	if perChunkPlan > 0.1 {
		t.Fatalf("warm pushdown allocates %.2f times per chunk × plan, budget 0.1", perChunkPlan)
	}
}

// A cold chunk — nothing cached, the executable runs — pays for what it
// does and no more: one sandbox execution, one table put, and per plan
// one fold and one state put. The executable hands back one
// preallocated row slice and reads no frame, so what is counted is the
// engine's own miss path (keys, flight, harness, ingest, fold, encode,
// two cache entries). Measured as the slope between fresh 60- and
// 120-chunk windows, so the per-query fixed cost cancels.
//
// History of the two counts (COUNT, grouped COUNT): 38.0 and 67.4 at
// commit 31a92a5 (the grouped fold re-planned the inner SELECT per
// chunk); 24.9 and 28.4 once the per-chunk path was rebuilt; 13.0 and
// 16.4 with the fold written straight to its payload, the stamped table
// and the fold state pooled, and the executable's rows ingested without
// a conformed copy. The budgets are those counts plus half an
// allocation for a pooled scratch the collector drops (not checked
// under -race, where the sandbox's pooled channel and timer are dropped
// at random and allocated again). The work per chunk is pinned exactly,
// race or not: the saving is allocations, not skipped work.
func TestColdChunkAllocBudget(t *testing.T) {
	const runs = 8
	rows := []table.Row{{table.N(1)}, {table.N(2)}}
	var execs atomic.Int64
	for sel, budget := range map[string]float64{
		"SELECT COUNT(*) FROM t": 13.5,
		"SELECT COUNT(*) FROM (SELECT bin(chunk, 3600) AS b FROM t) GROUP BY b": 16.9,
	} {
		e := New(Options{Seed: 1, Evaluation: true})
		start := time.Date(2021, 3, 15, 0, 0, 0, 0, time.UTC)
		src := &video.IntervalSource{Camera: "camA", FPS: 2, Start: start, Frames: 2 * 48 * 3600}
		if err := e.RegisterCamera(CameraConfig{Name: "camA", Source: src, Policy: policy.Policy{Rho: 25 * time.Second, K: 1}, Epsilon: 1e9}); err != nil {
			t.Fatal(err)
		}
		if err := e.Registry().Register("fixed", func(*video.Chunk) []table.Row { execs.Add(1); return rows }); err != nil {
			t.Fatal(err)
		}
		next := start // every query reads a window no query has read
		coldAllocs := func(chunks int) float64 {
			var progs []*query.Program
			for i := 0; i <= runs; i++ { // AllocsPerRun warms up with one extra call
				end := next.Add(time.Duration(chunks) * 30 * time.Second)
				prog, err := query.Parse(fmt.Sprintf(`
SPLIT camA BEGIN %s END %s BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING fixed TIMEOUT 5sec PRODUCING 2 ROWS WITH SCHEMA (id:NUMBER=0) INTO t;
%s CONSUMING 0.001;`, next.Format("01-02-2006/3:04pm"), end.Format("01-02-2006/3:04pm"), sel))
				if err != nil {
					t.Fatal(err)
				}
				progs, next = append(progs, prog), end
			}
			execs.Store(0)
			folds, cs := e.PartialStats().Folds, e.CacheStats()
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := e.Execute(progs[0]); err != nil {
					t.Fatal(err)
				}
				progs = progs[1:]
			})
			want := uint64((runs + 1) * chunks)
			after := e.CacheStats()
			if got := e.PartialStats().Folds - folds; got != want || uint64(execs.Load()) != want ||
				after.Puts-cs.Puts != want || after.StatePuts-cs.StatePuts != want || after.Hits != cs.Hits || after.StateHits != cs.StateHits {
				t.Fatalf("%s: %d cold chunks made %d folds, %d executions, %d table and %d state puts; want %d of each and no hit",
					sel, want, got, execs.Load(), after.Puts-cs.Puts, after.StatePuts-cs.StatePuts, want)
			}
			return allocs
		}
		a1, a2 := coldAllocs(60), coldAllocs(120)
		perChunk := (a2 - a1) / 60
		t.Logf("%s: 60 chunks %.0f allocs, 120 chunks %.0f allocs: %.1f per cold chunk (budget %.1f)", sel, a1, a2, perChunk, budget)
		if perChunk > budget && !raceEnabled {
			t.Errorf("%s: a cold chunk allocates %.1f times, budget %.1f", sel, perChunk, budget)
		}
	}
}

// A warm chunk allocates nothing, so a warm query's allocation count
// does not grow with its chunk count — whether its chunks are state
// hits (pushdown COUNT and grouped COUNT) or table hits (AVG declines
// pushdown and materialises the table). Measured over 60 and 360 active
// 10 s chunks of one camera: both windows lie in one hour bucket, so
// the grouped statement releases one value either way and only the
// chunk count differs. At the parent (string keys, per-split ordinal
// and slot slices, a stamped table per shard copied again into the
// materialised one) the 300 extra chunks cost 300 allocations for COUNT,
// 300 for the grouped COUNT and 306 for AVG; now they cost none.
func TestWarmChunkAllocsFlat(t *testing.T) {
	const slack = 2 // a pooled scratch the collector dropped mid-measurement
	e := New(Options{Seed: 1, Evaluation: true})
	start := time.Date(2021, 3, 15, 0, 0, 0, 0, time.UTC)
	src := &video.IntervalSource{Camera: "camA", FPS: 2, Start: start, Frames: 2 * 24 * 3600}
	if err := e.RegisterCamera(CameraConfig{Name: "camA", Source: src, Policy: policy.Policy{Rho: 25 * time.Second, K: 1}, Epsilon: 1e9}); err != nil {
		t.Fatal(err)
	}
	rows := []table.Row{{table.N(1)}, {table.N(2)}}
	if err := e.Registry().Register("fixed", func(*video.Chunk) []table.Row { return rows }); err != nil {
		t.Fatal(err)
	}
	for _, sel := range []string{
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(*) FROM (SELECT bin(chunk, 3600) AS b FROM t) GROUP BY b",
		"SELECT AVG(range(id, 0, 10)) FROM t",
	} {
		warmAllocs := func(chunks int) float64 {
			end := start.Add(time.Duration(chunks) * 10 * time.Second)
			prog, err := query.Parse(fmt.Sprintf(`
SPLIT camA BEGIN %s END %s BY TIME 10sec STRIDE 0sec INTO chunks;
PROCESS chunks USING fixed TIMEOUT 5sec PRODUCING 2 ROWS WITH SCHEMA (id:NUMBER=0) INTO t;
%s CONSUMING 0.001;`, start.Format("01-02-2006/3:04pm"), end.Format("01-02-2006/3:04pm"), sel))
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := e.Execute(prog); err != nil {
					t.Fatal(err)
				}
			}
			run() // populate the cache
			cs := e.CacheStats()
			allocs := testing.AllocsPerRun(20, run)
			if after := e.CacheStats(); after.Puts != cs.Puts || after.StatePuts != cs.StatePuts || after.Hits+after.StateHits == cs.Hits+cs.StateHits {
				t.Fatalf("%s over %d chunks did not run warm: %+v -> %+v", sel, chunks, cs, after)
			}
			return allocs
		}
		a60, a360 := warmAllocs(60), warmAllocs(360)
		t.Logf("%s: 60 chunks %.0f allocs, 360 chunks %.0f allocs", sel, a60, a360)
		if a360-a60 > slack && !raceEnabled {
			t.Errorf("%s: 300 more warm chunks cost %.0f more allocations, budget %d", sel, a360-a60, slack)
		}
	}
}

// A split's scratch goes back to the pool cleared — no block or state
// slot, within its length or past it, still points at a cached table or
// payload — on both the pushdown and the materialised path.
func TestSplitScratchReleasedClear(t *testing.T) {
	e := newTestEngine(t, countScene(50), policy.Policy{Rho: 25 * time.Second, K: 1}, 1e9)
	for _, sel := range []string{"SELECT COUNT(*) FROM t", "SELECT AVG(range(one, 0, 1)) FROM t"} {
		prog, err := query.Parse(strings.Replace(countQuery, "SELECT COUNT(*) FROM t", sel, 1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // cold, then warm
			if _, err := e.Execute(prog); err != nil {
				t.Fatal(err)
			}
		}
		var held []*splitScratch
		for i := 0; i < 4; i++ {
			sc := scratchPool.Get().(*splitScratch)
			held = append(held, sc)
			if slices.ContainsFunc(sc.states[:cap(sc.states)], func(b []byte) bool { return b != nil }) ||
				slices.ContainsFunc(sc.blocks[:cap(sc.blocks)], func(b *table.Table) bool { return b != nil }) ||
				slices.ContainsFunc(sc.batch.Out[:cap(sc.batch.Out)], func(b []byte) bool { return b != nil }) {
				t.Fatalf("%s: a pooled scratch still holds a slot", sel)
			}
		}
		for _, sc := range held {
			scratchPool.Put(sc)
		}
	}
}

// admissionRig is one 30-second-chunk interval camera whose executable
// counts its executions, and a pushdown COUNT over any window of its
// chunks, for the RAM tier's write-admission gates.
type admissionRig struct {
	t     *testing.T
	execs atomic.Int64
}

const rigChunks = 440

var rigStart = time.Date(2021, 3, 15, 0, 0, 0, 0, time.UTC)

// engine returns a RAM-only engine over the rig's camera.
func (r *admissionRig) engine(cacheBytes int64) *Engine {
	e := New(Options{Seed: 1, Evaluation: true, ChunkCacheBytes: cacheBytes})
	src := &video.IntervalSource{Camera: "camA", FPS: 2, Start: rigStart, Frames: 2 * 30 * rigChunks}
	if err := e.RegisterCamera(CameraConfig{Name: "camA", Source: src, Policy: policy.Policy{Rho: 25 * time.Second, K: 1}, Epsilon: 1e9}); err != nil {
		r.t.Fatal(err)
	}
	rows := []table.Row{{table.N(1)}, {table.N(2)}}
	if err := e.Registry().Register("fixed", func(*video.Chunk) []table.Row { r.execs.Add(1); return rows }); err != nil {
		r.t.Fatal(err)
	}
	return e
}

// window parses the COUNT over chunks [from, from+chunks).
func (r *admissionRig) window(from, chunks int) *query.Program {
	begin := rigStart.Add(time.Duration(from) * 30 * time.Second)
	prog, err := query.Parse(fmt.Sprintf(`
SPLIT camA BEGIN %s END %s BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING fixed TIMEOUT 5sec PRODUCING 2 ROWS WITH SCHEMA (id:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.001;`,
		begin.Format("01-02-2006/3:04pm"), begin.Add(time.Duration(chunks)*30*time.Second).Format("01-02-2006/3:04pm")))
	if err != nil {
		r.t.Fatal(err)
	}
	return prog
}

// run executes prog on e and returns how many chunks it executed.
func (r *admissionRig) run(e *Engine, prog *query.Program) int64 {
	before := r.execs.Load()
	if _, err := e.Execute(prog); err != nil {
		r.t.Fatal(err)
	}
	return r.execs.Load() - before
}

// windowBytes is what a 40-chunk window's tables and states take in the
// RAM tier.
func (r *admissionRig) windowBytes() int64 {
	e := r.engine(0)
	defer e.Close()
	r.run(e, r.window(0, 40))
	return e.CacheStats().Bytes
}

// A scan larger than the RAM tier does not flush the hot set from it.
// The tier holds one 40-chunk hot window with room to spare; after the
// hot query, a scan of ten times as many chunks (several times the
// tier's bytes) runs, and the hot query again then makes no sandbox
// execution and hits every chunk's state. Without write admission the
// scan's puts evict the hot window, and the rerun executes it afresh.
func TestScanKeepsHotSetResident(t *testing.T) {
	const hotChunks, scanChunks = 40, 400
	r := &admissionRig{t: t}
	e := r.engine(r.windowBytes() * 3 / 2)
	defer e.Close()
	hot := r.window(0, hotChunks)
	r.run(e, hot)
	r.run(e, r.window(hotChunks, scanChunks))
	before := e.CacheStats()
	ran := r.run(e, hot)
	st := e.CacheStats()
	if ran != 0 || st.StateHits-before.StateHits != hotChunks || st.StateMisses != before.StateMisses {
		t.Fatalf("hot rerun after a %d-chunk scan through a %d-byte tier made %d executions, %d state hits and %d state misses; want 0, %d and 0",
			scanChunks, st.MaxBytes, ran, st.StateHits-before.StateHits, st.StateMisses-before.StateMisses, hotChunks)
	}
}

// A window that moves on through a full RAM tier executes only its new
// chunks, as plain LRU does: the entries it leaves behind were read, so
// its new chunks' states replace them on their first put instead of
// being declined and executed again on the next refresh. A 40-chunk
// dashboard window, run twice, then slides by 10 chunks six times
// through a tier of 1.25 windows.
func TestMovingWindowExecutesOnlyNewChunks(t *testing.T) {
	r := &admissionRig{t: t}
	e := r.engine(r.windowBytes() * 5 / 4)
	defer e.Close()
	r.run(e, r.window(0, 40))
	r.run(e, r.window(0, 40))
	for slide := 1; slide <= 6; slide++ {
		if ran := r.run(e, r.window(10*slide, 40)); ran != 10 {
			t.Fatalf("slide %d executed %d chunks, want its 10 new ones; cache %+v", slide, ran, e.CacheStats())
		}
	}
	if st := e.CacheStats(); st.Evictions == 0 || st.Declined == 0 {
		t.Fatalf("the tier never filled and ruled: %+v", st)
	}
}

// A split's warm pass looks plan p up only for the chunks every earlier
// plan found, and runs only the chunks some plan missed. A program of
// two SELECTs over one PROCESS table (two pushdown plans) reruns over
// 120 chunks after earlier programs of one SELECT each stored the first
// plan's states for chunks 0-79 and the second plan's for chunks 40-119:
// the first plan hits 80 chunks and misses 40, the second is looked up
// for those 80 alone and hits 40 and misses 40, so exactly 80 chunks are
// folded, both plans each, and the release equals a cold run's bit for
// bit. Then a fully warm rerun folds nothing. RAM-only, and disk-only,
// where every state is read into the split's buffers, a run of them per
// plan.
func TestWarmPassLooksLaterPlansUpForWarmChunksOnly(t *testing.T) {
	const both = `
SELECT COUNT(*) FROM t CONSUMING 0.001;
SELECT SUM(range(one, 0, 1)) FROM t CONSUMING 0.001;`
	program := func(begin, end, sels string) *query.Program {
		prog, err := query.Parse(`
SPLIT camA BEGIN 03-15-2021/` + begin + ` END 03-15-2021/` + end + `
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;` + sels)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	engine := func(opts Options) *Engine {
		opts.Seed, opts.Evaluation = 1, true
		e := New(opts)
		if err := e.RegisterCamera(CameraConfig{Name: "camA", Source: countScene(50).Source("camA"), Policy: policy.Policy{Rho: 25 * time.Second, K: 1}, Epsilon: 1e9}); err != nil {
			t.Fatal(err)
		}
		if err := e.Registry().Register("counter", countNewEntrants); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	raws := func(e *Engine, prog *query.Program) []uint64 {
		res, err := e.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for _, r := range res.Releases {
			bits = append(bits, math.Float64bits(r.Raw))
		}
		return bits
	}
	cold := raws(engine(Options{}), program("6:00am", "7:00am", both))
	for name, opts := range map[string]Options{
		"ram":  {},
		"disk": {ChunkCacheBytes: -1, DiskCacheDir: t.TempDir()},
	} {
		e := engine(opts)
		raws(e, program("6:00am", "6:40am", "SELECT COUNT(*) FROM t CONSUMING 0.001;"))
		raws(e, program("6:20am", "7:00am", "SELECT SUM(range(one, 0, 1)) FROM t CONSUMING 0.001;"))
		before := e.PartialStats()
		got := raws(e, program("6:00am", "7:00am", both))
		after := e.PartialStats()
		if !slices.Equal(got, cold) {
			t.Fatalf("%s: released raw %v, want the cold run's %v", name, got, cold)
		}
		if folds, misses, hits, cached := after.Folds-before.Folds, after.StateMisses-before.StateMisses,
			after.StateHits-before.StateHits, after.CachedChunks-before.CachedChunks; folds != 2*80 || misses != 40+40 || hits != 80+40 || cached != 40 {
			t.Fatalf("%s: %d folds, %d state misses, %d state hits, %d warm chunks; want 160, 80, 120 and 40", name, folds, misses, hits, cached)
		}
		before = after
		if got := raws(e, program("6:00am", "7:00am", both)); !slices.Equal(got, cold) {
			t.Fatalf("%s: warm rerun released raw %v, want the cold run's %v", name, got, cold)
		}
		if after := e.PartialStats(); after.Folds != before.Folds || after.StateMisses != before.StateMisses || after.CachedChunks-before.CachedChunks != 120 {
			t.Fatalf("%s: the fully warm rerun was not: %+v -> %+v", name, before, after)
		}
	}
}
