package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"privid/internal/cache"
	"privid/internal/dp"
	"privid/internal/obs"
	"privid/internal/query"
	"privid/internal/rel"
	"privid/internal/sandbox"
	"privid/internal/store"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

// ReleaseResult is one noised data release returned to the analyst.
type ReleaseResult struct {
	// Desc describes the aggregation, e.g. "COUNT(plate)[color=RED]".
	Desc string
	// Key is the group key for GROUP BY releases.
	Key    table.Value
	HasKey bool
	// Value is the released (noisy) number. For ARGMAX releases the
	// released value is ArgmaxKey instead.
	Value float64
	// ArgmaxKey is the winning key of an ARGMAX release.
	ArgmaxKey table.Value
	// RawArgmaxKey is the pre-noise winner; populated only in
	// Evaluation mode.
	RawArgmaxKey table.Value
	IsArgmax     bool
	// NoiseScale is the Laplace scale b = Δ/ε applied.
	NoiseScale float64
	// Epsilon is the budget the release consumed.
	Epsilon float64
	// Sensitivity is Δ(Q).
	Sensitivity float64
	// Raw is the pre-noise value; populated only in Evaluation mode.
	Raw float64
	// RawSet marks that Raw is meaningful.
	RawSet bool
	// Begin and End are the wall-clock span the release covers — the
	// query window for whole-table aggregates, the bucket span for
	// time-bucketed GROUP BY releases. Each touched camera is charged
	// over its queried span clipped to [Begin, End); external ledger
	// accounting (internal/sim's invariant checker) rebuilds the
	// per-frame charges from them.
	Begin, End time.Time
}

// CameraBudget reports one camera's share of a query's privacy cost:
// how much the query charged that camera's ledger and the worst-case
// budget left afterwards over the charged frames. It lets a fleet
// analyst see, per camera, how close each ledger is to exhaustion
// without a separate budget endpoint round-trip.
type CameraBudget struct {
	// Camera is the camera name.
	Camera string
	// EpsilonSpent is the total ε this query charged the camera (a
	// release spanning several cameras charges its ε on each, so the
	// per-camera values can sum to more than Result.EpsilonSpent).
	EpsilonSpent float64
	// Remaining is the minimum unspent budget over every frame this
	// query charged, measured after the charge landed.
	Remaining float64
}

// Result is the outcome of executing a program.
type Result struct {
	Releases []ReleaseResult
	// EpsilonSpent is the total budget the program consumed (sum over
	// releases).
	EpsilonSpent float64
	// Cameras reports the per-camera budget impact, sorted by camera
	// name (empty when the program released nothing chargeable).
	Cameras []CameraBudget
}

// slotGraceMultiple scales a PROCESS statement's TIMEOUT into the
// grace period after which a timed-out executable that still has not
// exited forfeits its Parallelism slot. Long enough that an executable
// merely overrunning keeps the engine-wide bound exact; short enough
// that a truly hung executable cannot wedge the engine.
const slotGraceMultiple = 4

// flightWaitMultiple scales the effective TIMEOUT into the longest a
// singleflight follower waits for its leader before giving up and
// executing on its own. A clean leader returns within one timeout;
// each handoff after a failed leader costs up to another. Four covers
// a leader plus a few handoffs, after which waiting longer is worse
// than paying the duplicate execution.
const flightWaitMultiple = 4

// Execute runs a parsed program end to end and returns its noised
// releases. On budget exhaustion the query is denied as a whole and
// nothing is consumed on any camera. It plans prog afresh and keeps
// nothing: a program run more than once runs through a Prepared.
func (e *Engine) Execute(prog *query.Program) (*Result, error) {
	return e.execute(&Prepared{Program: prog}, nil, nil, nil)
}

// ExecutePrepared runs p like Execute, reusing the plan p keeps while
// the catalog it was planned over is unchanged, and tags its WAL charge
// records with p.Tag.
func (e *Engine) ExecutePrepared(p *Prepared) (*Result, error) {
	return e.execute(p, nil, nil, nil)
}

// ExecuteTraced runs p like ExecutePrepared and records a span tree:
// one span per pipeline stage, one per camera shard of each PROCESS,
// and the admission and commit outcomes. job, when non-nil, builds a
// terminal job record from the noised result; it lands in the same
// commit as the charges, after them, so no crash keeps the answer and
// loses its charge. The trace is returned even when execution fails.
// Its attributes carry only identifiers, chunk and cache counts,
// durations and ε amounts — never released values, row contents or row
// counts (an exact row count is an un-noised COUNT).
func (e *Engine) ExecuteTraced(p *Prepared, job func(*Result) *store.JobRecord) (*Result, *obs.Trace, error) {
	tr := obs.NewTrace("query", nil)
	res, err := e.execute(p, nil, job, tr.Root())
	if err != nil {
		tr.Root().Set("error", err.Error())
	}
	tr.Finish()
	return res, tr, err
}

// execute is the pipeline (Algorithm 1): plan, reserve the budget from
// the release skeleton, run every PROCESS and SELECT to fill the values
// in, noise them, then commit the charges, tagged p.Tag, with the result
// (see admit) and return exactly the result committed. keep, when
// non-nil, filters the releases emitted and paid for (a standing query's
// newly completed buckets, Appendix D); when it keeps none, no chunk is
// touched. A failure after the reservation returns it exactly. sp, when
// non-nil, receives one child span per stage. The maps are made here so
// they stay on the stack.
func (e *Engine) execute(p *Prepared, keep func(rel.Release) bool, job func(*Result) *store.JobRecord, sp *obs.Span) (res *Result, err error) {
	start := time.Now()
	defer func() { e.met.queryDone(res, err, time.Since(start)) }()
	sets := map[string]*splitPlan{}
	pp, err := e.plan(p, sets, sp)
	if err != nil {
		return nil, err
	}
	rels, kept := pp.skeleton(keep)
	charges := map[string][]dp.Charge{}
	adm, err := e.admit(charges, rels, sp)
	if err != nil {
		return nil, err
	}
	if len(rels) > 0 {
		if err := e.run(pp, sets, rels, kept, sp); err != nil {
			e.mu.Lock()
			adm.resv.Release()
			e.mu.Unlock()
			return nil, err
		}
	}
	res = e.draw(adm, charges, rels, sp)
	if err := e.commit(adm, charges, p.Tag, res, job, sp); err != nil {
		return nil, err
	}
	return res, nil
}

// stage runs one pipeline stage under a child span of parent and, when
// it succeeds, observes its latency in the per-stage histogram. A
// failing stage still ends its span (the trace shows where the query
// stopped) but is kept out of the histogram.
func (e *Engine) stage(parent *obs.Span, name string, fn func(sp *obs.Span) error) error {
	start := time.Now()
	sp := parent.Child(name)
	defer sp.End()
	if err := fn(sp); err != nil {
		return err
	}
	sp.End()
	e.met.stage(name, time.Since(start))
	return nil
}

// run executes every PROCESS in program order (a later one into a table
// replaces the earlier), then fills in the values of rels, the releases
// skeleton kept: from the fold states of a pushed-down table, else by
// executing the planned SELECT over the materialized tables.
func (e *Engine) run(pp *programPlan, sets map[string]*splitPlan, rels []rel.Release, kept []bool, sp *obs.Span) error {
	start := time.Now()
	env, vals := rel.Env{}, make([][]rel.Release, len(pp.sels))
	for i := range pp.procs {
		pr := &pp.procs[i]
		procSp := sp.Child("process")
		procSp.Set("table", pr.st.Into)
		inst, err := e.runProcess(sets[pr.st.Input], pr, vals, procSp)
		procSp.End()
		if err != nil {
			return err
		}
		env[pr.st.Into] = inst
	}
	e.met.stage("process", time.Since(start))
	return e.stage(sp, "aggregate", func(sp *obs.Span) error {
		i, flat := 0, 0
		for j, p := range pp.sels {
			var err error
			if !pp.folded[j] {
				if vals[j], err = p.Execute(env); err != nil {
					return err
				}
			}
			for _, r := range vals[j] {
				if kept == nil || kept[flat] {
					rels[i].Raw, rels[i].Scores = r.Raw, r.Scores
					i++
				}
				flat++
			}
		}
		sp.Set("releases", len(rels))
		return nil
	})
}

// runProcess executes the analyst's executable over every chunk of the
// chunk set, one shard per camera, fanned out concurrently (each bounded
// by PerCameraParallelism, all by the engine-wide pool), so an N-camera
// query costs about the slowest shard's wall-clock. A cached chunk skips
// the sandbox. By default it materializes the intermediate table. When
// the plan folds the table (pr.plans), the shards fold chunk blocks into
// per-plan partial states instead, cached per chunk × plan, and each
// SELECT's finalized releases land in folded: peak memory scales with
// groups × cameras, not rows.
func (e *Engine) runProcess(set *splitPlan, pr *procPlan, folded [][]rel.Release, sp *obs.Span) (*rel.Instance, error) {
	par := e.opts.Parallelism
	if len(set.shards) > 1 {
		par = e.opts.PerCameraParallelism
	}
	switch {
	case pr.plans != nil:
		e.ppPlans.Add(uint64(len(pr.plans)))
		sp.Set("pushdown_plans", len(pr.plans))
	case pr.declined:
		e.ppDeclined.Add(1)
	}

	// The one shard fan-out: every shard runs concurrently (a single
	// shard inline) into its own slot, and the slots are combined in
	// shard order below, so the output is deterministic however the
	// shards' completions interleave.
	outs := make([]shardOutput, len(set.shards))
	forEachChunk(len(outs), len(outs), func(i int) {
		outs[i] = e.runShard(i, set.shards[i], pr, par, sp)
	})
	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
	}
	if pr.plans == nil {
		// One table, reserved once and filled in shard, split and chunk
		// order (dedup picks the same representative rows regardless of
		// shard timing), each block stamped with its implicit columns.
		data, n := table.New(pr.full), 0
		var consts [3]table.Value
		for _, out := range outs {
			n += out.rows
		}
		data.Grow(n)
		for i, out := range outs {
			sh := set.shards[i]
			for s, sc := range out.parts {
				split, camVal := &sh.splits[s], table.S(sh.cam.cfg.Name)
				clock := split.Source.Info().Clock()
				for k, blk := range sc.blocks {
					start := clock.TimeOf(split.IntervalAt(sc.ords[k]).Start)
					data.AppendBlock(blk, implicitConsts(consts[:0], start, split.Region, pr.hasRegion, camVal, pr.multi)...)
				}
				sc.release()
			}
		}
		return rel.NewInstance(data, pr.metas...), nil
	}
	// Merge the shard states in shard order (merge order cannot matter —
	// the property tests pin that — but determinism costs nothing).
	for p, pp := range pr.plans {
		agg := pp.NewState()
		for _, out := range outs {
			pp.Merge(agg, out.states[p])
		}
		folded[pr.sels[p]] = pp.Finalize(agg)
	}
	e.ppMerges.Add(uint64(len(outs) * len(pr.plans)))
	return nil, nil
}

// shardOutput is one shard's result: per region split its scratch, whose
// blocks (rows in all) runProcess stamps and releases, or under
// pushdown its merged state per plan (index-aligned with pr.plans).
type shardOutput struct {
	parts  []*splitScratch
	rows   int
	states []*rel.PartialState
	err    error
}

// splitScratch is one region split's per-chunk working set, pooled so a
// warm query allocates nothing per chunk. release clears the slots
// first: a pooled slot never pins a cached table or payload, and slots
// past a slice's length are always nil. The warm pass (warmStates)
// looks states up through batch, whose keys it fills into keys. bufs,
// one per state slot with a disk tier, are the scratch's own: a disk
// hit RAM does not keep is read into its slot's buffer, which the next
// query reuses. warm and cold list chunk positions in ords.
type splitScratch struct {
	ords       []int64
	ivs        []vtime.Interval
	states     [][]byte
	bufs       [][]byte
	blocks     []*table.Table
	batch      cache.StateBatch
	keys       []byte
	warm, cold []int
}

var scratchPool = sync.Pool{New: func() any { return new(splitScratch) }}

func (sc *splitScratch) release() {
	clear(sc.states)
	clear(sc.blocks)
	clear(sc.batch.Out)
	sc.states, sc.blocks = sc.states[:0], sc.blocks[:0]
	scratchPool.Put(sc)
}

// warmStates is a split's warm pass under pushdown: it looks the
// chunks' states up in one cache batch per plan, fills the states it
// finds, and appends the chunks left cold to cold, in chunk order. Plan
// p is looked up only for the chunks whose every earlier plan's state
// was cached and compatible, as a chunk's own lookups would stop at its
// first absent, bit-rotten or incompatible state, so hit and miss
// counts are those of per-chunk lookups; a cold chunk folds every plan
// afresh and overwrites the states found for it.
func (e *Engine) warmStates(sc *splitScratch, split *video.Split, prefixes []string, plans []*rel.PartialPlan, cold []int) []int {
	n, np := len(sc.ords), len(plans)
	warm, b := sc.warm[:0], &sc.batch
	for i := range n {
		warm = append(warm, i)
	}
	var bufs [][]byte // with a disk tier, plan p's batch reads into run p of the scratch's own
	if hasDisk(e) {
		sc.bufs = slices.Grow(sc.bufs[:0], n*np)[:n*np]
		bufs = sc.bufs
	}
	for p, pp := range plans {
		if len(warm) == 0 {
			break
		}
		// The keys go into one buffer grown up front, so the batch's
		// slices of it stay put.
		sc.keys, b.Keys = slices.Grow(sc.keys[:0], len(warm)*chunkKeyLen), b.Keys[:0]
		for _, i := range warm {
			k := chunkKey(prefixes[p], split.IntervalAt(sc.ords[i]))
			sc.keys = append(sc.keys, k[:]...)
			b.Keys = append(b.Keys, sc.keys[len(sc.keys)-chunkKeyLen:])
		}
		if b.Bufs = nil; bufs != nil {
			b.Bufs = bufs[p*n : p*n+len(warm)]
		}
		e.chunkCache.GetStates(b)
		kept := warm[:0]
		for j, i := range warm {
			if b.Hit[j] && pp.CompatibleEncoded(b.Out[j]) {
				sc.states[i*np+p] = b.Out[j]
				kept = append(kept, i)
			} else {
				cold = append(cold, i)
			}
		}
		warm = kept
	}
	slices.Sort(cold)
	sc.warm = warm
	return cold
}

// shardTallies accumulates one shard's per-chunk counters in atomics
// (the chunk workers run concurrently); they land on the shard span
// once, keeping the span's mutex off the per-chunk hot path.
type shardTallies struct {
	hits, misses, sandboxNanos           atomic.Int64
	sfFollowers, sfHandoffs, sfAbandoned atomic.Int64
	stateChunks, folds                   atomic.Int64
}

// spanTallies lands the accumulated counters on a shard span; the
// exceptional ones only when they moved.
func (e *Engine) spanTallies(ssp *obs.Span, tl *shardTallies) {
	if ssp == nil {
		return
	}
	addMoved := func(key string, n *atomic.Int64) {
		if v := n.Load(); v > 0 {
			ssp.Add(key, float64(v))
		}
	}
	if e.chunkCache != nil {
		ssp.Add("cache_hits", float64(tl.hits.Load()))
		ssp.Add("cache_misses", float64(tl.misses.Load()))
		// Chunks this shard did not execute because a concurrent
		// miss elsewhere led the same key (plus the failure modes:
		// promotions after a failed leader, waits abandoned after
		// flightWaitMultiple×TIMEOUT).
		addMoved("singleflight_followers", &tl.sfFollowers)
		addMoved("singleflight_handoffs", &tl.sfHandoffs)
		addMoved("singleflight_abandoned", &tl.sfAbandoned)
		// Chunks whose every plan's partial state came from the cache —
		// no sandbox execution and no fold.
		addMoved("partial_state_chunks", &tl.stateChunks)
	}
	addMoved("partial_folds", &tl.folds)
	ssp.Add("sandbox_seconds", time.Duration(tl.sandboxNanos.Load()).Seconds())
}

// forEachChunk calls fn(i) once for every i in [0, n) from min(par, n)
// workers — the caller is one of them — each claiming the next index
// from a shared counter, so a slow chunk strands nothing behind it and
// a shard costs par goroutines, not one per chunk. With par <= 1 or a
// single chunk everything runs inline on the caller, before the shared
// counter and WaitGroup (heap-allocated: the workers capture them)
// exist.
func forEachChunk(n, par int, fn func(i int)) {
	if par <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < par && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// implicitConsts appends to dst the trusted implicit column values
// stamped onto every row of one chunk: its start time, then the region
// and the camera where the table carries them.
func implicitConsts(dst []table.Value, start time.Time, region string, hasRegion bool, camVal table.Value, multi bool) []table.Value {
	dst = append(dst, table.N(float64(start.Unix())))
	if hasRegion {
		dst = append(dst, table.S(region))
	}
	if multi {
		dst = append(dst, camVal)
	}
	return dst
}

// foldScratch is a cold chunk's fold working set, pooled: the stamped
// block and the state each plan folds into before encoding it. release
// empties the table, so a pooled scratch never pins a block's strings.
type foldScratch struct {
	stamped table.Table
	state   rel.PartialState
}

var foldPool = sync.Pool{New: func() any { return new(foldScratch) }}

func (fs *foldScratch) release() {
	fs.stamped.Reset(table.Schema{})
	foldPool.Put(fs)
}

// fetchChunkBlock obtains one chunk's block in the declared schema —
// from the table cache, a singleflight peer, or a sandbox execution —
// and reports whether the block is clean (cache hits and shared
// results always are; an execution is clean unless the sandbox
// substituted fallback rows, which the cache then neither stores nor
// shares). key is nil exactly when the chunk cache is disabled.
// covered says the caller folds the block into partial states it caches
// too, so a rerun reads those and not the table (cache.Tiered.DoCovered).
// The video.Chunk is built only when the executable has to run: a hit
// costs the lookup and nothing else.
func (e *Engine) fetchChunkBlock(key []byte, split *video.Split, ord int64, exec sandbox.Executor, covered bool, tl *shardTallies) (*table.Table, bool) {
	run := func() (*table.Table, bool) { return e.execChunk(split.ChunkAt(ord), exec, tl) }
	if e.chunkCache == nil {
		return run()
	}
	var blk *table.Table
	var clean bool
	var outcome cache.Outcome
	if covered {
		blk, clean, outcome = e.chunkCache.DoCovered(key, flightWaitMultiple*exec.Timeout, run)
	} else {
		blk, clean, outcome = e.chunkCache.Do(key, flightWaitMultiple*exec.Timeout, run)
	}
	switch outcome {
	case cache.Hit:
		tl.hits.Add(1)
		return blk, clean
	case cache.Shared:
		tl.sfFollowers.Add(1)
	case cache.Handoff:
		tl.sfHandoffs.Add(1)
	case cache.Abandoned:
		tl.sfAbandoned.Add(1)
	}
	tl.misses.Add(1)
	return blk, clean
}

// execChunk is one raw sandbox execution: acquire a slot, run the
// executable, return the chunk's block in the declared schema and
// whether it completed cleanly.
func (e *Engine) execChunk(chunk *video.Chunk, exec sandbox.Executor, tl *shardTallies) (*table.Table, bool) {
	// The engine-wide semaphore keeps the total number of in-flight
	// sandbox executions — across every query running concurrently — at
	// Parallelism, so serving many analysts cannot oversubscribe the CPU
	// and push executables past their wall-clock TIMEOUT.
	//
	// The slot is released when the executable goroutine exits (on a
	// timeout that is later than RunChecked's return, so a slow
	// executable cannot be double-booked) — except that a hung executable
	// forfeits its slot after a grace period, so one non-terminating
	// ProcessFunc degrades to a bounded CPU leak instead of permanently
	// wedging every analyst's queries.
	e.procSem <- struct{}{}
	var released atomic.Bool
	exec.Done = func() {
		if released.CompareAndSwap(false, true) {
			<-e.procSem
		}
	}
	execStart := time.Now()
	blk, clean := exec.RunTable(chunk)
	execDur := time.Since(execStart)
	e.met.sandbox(execDur, clean)
	tl.sandboxNanos.Add(int64(execDur))
	// Arm the grace backstop only when the slot is still held — a panic's
	// goroutine has already exited and released, so it needs no timer. (A
	// release racing this check just leaves one harmless no-op timer.)
	// exec.Timeout is always positive (prepareProcess substitutes the
	// default for TIMEOUT-less programmatic statements), so the backstop
	// can always arm.
	if !clean && !released.Load() {
		time.AfterFunc(slotGraceMultiple*exec.Timeout, exec.Done)
	}
	return blk, clean
}

// runShard executes the analyst's executable over every chunk of one
// camera shard, at most par at a time, and returns each region split's
// blocks in chunk order or, under pushdown, its merged state per plan.
// There every chunk leaves one encoded state per plan — the cached bytes
// when every plan's is cached, skipping sandbox and fold, else the
// payload just folded. A fold cannot fail (a planned statement executes
// totally), nor can a payload the worker accepted or encoded fail to
// merge; both errors still propagate, with texts that depend on nothing
// but the program, so a bug becomes a query error, never a wrong release.
func (e *Engine) runShard(shard int, sh *splitShard, pr *procPlan, par int, psp *obs.Span) (out shardOutput) {
	camName := sh.cam.cfg.Name
	camVal := table.S(camName)
	tl := &shardTallies{}
	ssp := psp.Child("shard")
	defer ssp.End()
	np, chunks := len(pr.plans), 0
	if ssp != nil {
		ssp.Set("camera", camName)
		if np > 0 {
			ssp.Set("mode", "pushdown")
		}
		defer func() { ssp.Set("chunks", chunks) }()
	}
	for _, pp := range pr.plans {
		out.states = append(out.states, pp.NewState())
	}
	for s := range sh.splits {
		// The split's active chunk ordinals, enumerated once into a pooled
		// scratch with a slot per chunk for its block, or under pushdown
		// per chunk × plan for its encoded state — the cached bytes, or on
		// a miss the payload just folded (and, when clean, cached).
		split, sc := &sh.splits[s], scratchPool.Get().(*splitScratch)
		sc.ords = split.AppendActiveChunks(sc.ords[:0], &sc.ivs)
		ords, n := sc.ords, len(sc.ords)
		blocks, states := slices.Grow(sc.blocks, n)[:n], slices.Grow(sc.states, n*np)[:n*np]
		sc.blocks, sc.states, chunks = blocks, states, chunks+n
		prefixes := pr.keys[shard][s]
		// Warm pass: a chunk whose every plan's state is cached costs no
		// sandbox execution, fold or decode, and no chunk worker; the
		// workers run the cold chunks alone.
		cold := sc.cold[:0]
		if e.chunkCache != nil && np > 0 {
			cold = e.warmStates(sc, split, prefixes[1:], pr.plans, cold)
			tl.stateChunks.Add(int64(n - len(cold)))
		} else {
			for i := range n {
				cold = append(cold, i)
			}
		}
		sc.cold = cold
		var foldErr atomic.Pointer[error]
		clock := split.Source.Info().Clock()
		forEachChunk(len(cold), par, func(c int) {
			i := cold[c]
			iv := split.IntervalAt(ords[i])
			var tableKey []byte
			if e.chunkCache != nil {
				k := chunkKey(prefixes[0], iv)
				tableKey = k[:]
			}
			blk, clean := e.fetchChunkBlock(tableKey, split, ords[i], pr.exec, np > 0, tl)
			if np == 0 {
				blocks[i] = blk
				return
			}
			// The fold sees exactly the rows this chunk contributes to
			// the materialized table: the same AppendBlock, the same
			// consts, into a pooled table.
			var consts [3]table.Value
			fs := foldPool.Get().(*foldScratch)
			defer fs.release()
			fs.stamped.Reset(pr.full)
			fs.stamped.AppendBlock(blk, implicitConsts(consts[:0], clock.TimeOf(iv.Start), split.Region, pr.hasRegion, camVal, pr.multi)...)
			for p, pp := range pr.plans {
				raw, err := pp.FoldEncoded(&fs.stamped, camName, &fs.state)
				if err != nil {
					ferr := fmt.Errorf("core: partial fold of a chunk: %w", err)
					foldErr.CompareAndSwap(nil, &ferr)
					return
				}
				tl.folds.Add(1)
				e.ppFolds.Add(1)
				states[i*np+p] = raw
				if clean && e.chunkCache != nil {
					// Memoize only clean executions' states, mirroring
					// the table tier's fallback-row rule.
					k := chunkKey(prefixes[1+p], iv)
					e.chunkCache.PutState(k[:], states[i*np+p])
				}
			}
		})
		if err := foldErr.Load(); err != nil {
			out.err = *err
			return out
		}
		// Merge serially in chunk order: float sums are not associative,
		// and the differential tests pin the release to the row-major
		// oracle bit for bit.
		for k, raw := range states {
			// The payload's own complaint is left out: the text an analyst
			// may see depends on nothing but the program.
			if err := pr.plans[k%np].MergeEncoded(out.states[k%np], raw); err != nil {
				out.err = errors.New("core: merge of a chunk's state failed")
				return out
			}
		}
		e.ppMerges.Add(uint64(len(ords) * np))
		if np > 0 {
			sc.release()
			continue
		}
		for _, blk := range blocks {
			out.rows += blk.Len()
		}
		out.parts = append(out.parts, sc)
	}
	e.ppCachedChunks.Add(uint64(tl.stateChunks.Load()))
	e.spanTallies(ssp, tl)
	return out
}
