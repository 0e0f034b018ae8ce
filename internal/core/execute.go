package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"privid/internal/cache"
	"privid/internal/dp"
	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/rel"
	"privid/internal/sandbox"
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

// splitShard is one camera's slice of a resolved chunk set: the
// concrete chunking plan for that camera (one video.Split per region;
// a single entry with empty region name when unsplit).
type splitShard struct {
	cam        *camera
	pol        policy.Policy // effective (mask-adjusted) policy
	maskID     string        // WITH MASK id ("" when unmasked)
	schemeName string        // BY REGION scheme name ("" when unsplit)
	interval   vtime.Interval
	chunkF     int64
	strideF    int64
	splits     []video.Split // one per region
	regions    int           // 0 when not region-split
	// regionsPerEvent is the max region-chunks one individual can
	// influence per temporal chunk (>1 only under Grid Split).
	regionsPerEvent int
}

// splitPlan is a resolved SPLIT or MERGE statement: one shard per
// contributing camera. multi marks chunk sets whose PROCESS rows carry
// the trusted camera provenance column (multi-camera SPLIT and every
// MERGE output).
type splitPlan struct {
	shards []*splitShard
	multi  bool
}

// Execute runs a parsed program end to end and returns its noised
// releases. On budget exhaustion the query is denied as a whole and
// nothing is consumed on any camera.
func (e *Engine) Execute(prog *query.Program) (*Result, error) {
	return e.execute(prog, "", nil, nil)
}

// ExecuteTraced runs prog like Execute, tagging its WAL charge records
// with tag — typically a hash of the query source — so the durable
// ledger ties every ε debit to the query that caused it (an empty tag
// falls back to a fingerprint of the charge set), and additionally
// records a span tree of the execution: one span per pipeline stage,
// one child span per camera shard of each PROCESS (with cache hit/miss
// counts and sandbox time), and admission/commit outcomes. The trace is
// returned even when execution fails, so denials and errors are
// diagnosable. Trace attributes carry only identifiers, chunk and cache
// counts, durations and ε amounts — never released values, row contents
// or row counts (an exact per-camera row count is an un-noised COUNT).
func (e *Engine) ExecuteTraced(prog *query.Program, tag string) (*Result, *obs.Trace, error) {
	tr := obs.NewTrace("query", nil)
	res, err := e.execute(prog, tag, nil, tr.Root())
	if err != nil {
		tr.Root().Set("error", err.Error())
	}
	tr.Finish()
	return res, tr, err
}

// execute is the pipeline (Algorithm 1): resolve the chunk sets, run
// every PROCESS, execute every SELECT to releases, then admit the whole
// program's budget atomically, persist the charges, and only then add
// noise and release. See Execute for semantics and admit for the
// crash-safety ordering. keep optionally filters which releases are
// emitted (and paid for); a nil filter keeps everything. Standing
// queries use it to release only newly completed buckets (Appendix D's
// streaming semantics). sp, when non-nil, receives one child span per
// pipeline stage.
//
// The stages fill maps that are made here: a map that never leaves
// this frame stays on the stack, and a warm query is small enough for
// four heap-allocated maps to show in its bytes per op.
func (e *Engine) execute(prog *query.Program, tag string, keep func(rel.Release) bool, sp *obs.Span) (res *Result, err error) {
	start := time.Now()
	defer func() { e.met.queryDone(res, err, time.Since(start)) }()
	plans := map[string]*splitPlan{}
	if err := e.resolvePlans(prog, plans, sp); err != nil {
		return nil, err
	}
	cands := map[string][]*query.SelectStmt{}
	pushdownCandidates(prog, cands)
	env, pushed := rel.Env{}, map[*query.SelectStmt][]rel.Release{}
	if err := e.runProcesses(prog, plans, cands, env, pushed, sp); err != nil {
		return nil, err
	}
	rels, err := e.aggregate(prog, env, pushed, keep, sp)
	if err != nil {
		return nil, err
	}
	charges := map[string][]dp.Charge{}
	adm, err := e.admit(charges, rels, sp)
	if err != nil {
		return nil, err
	}
	if err := e.persist(adm, charges, tag, rels, sp); err != nil {
		return nil, err
	}
	return e.release(adm, charges, rels, sp), nil
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

// resolvePlans resolves every SPLIT, then every MERGE, into the chunk
// set it names.
func (e *Engine) resolvePlans(prog *query.Program, plans map[string]*splitPlan, sp *obs.Span) error {
	return e.stage(sp, "split", func(sp *obs.Span) error {
		for _, st := range prog.Splits {
			p, err := e.resolveSplit(st)
			if err != nil {
				return err
			}
			plans[st.Into] = p
		}
		// MERGE unions previously resolved chunk sets; validation already
		// guaranteed the inputs exist, are distinct, and share a region
		// scheme. The merged set always stamps camera provenance, even
		// when the inputs happen to cover a single camera: its sensitivity
		// composes per shard either way.
		for _, m := range prog.Merges {
			merged := &splitPlan{multi: true}
			for _, in := range m.Inputs {
				p, ok := plans[in]
				if !ok {
					return fmt.Errorf("core: MERGE input %q is not a defined chunk set", in)
				}
				merged.shards = append(merged.shards, p.shards...)
			}
			plans[m.Into] = merged
		}
		sp.Set("chunk_sets", len(plans))
		return nil
	})
}

// pushdownCandidates groups the SELECTs by the one PROCESS table they
// reference, for partial-aggregation pushdown. A table qualifies when
// every SELECT touching it touches nothing else (a JOIN or UNION
// partner forces the full materialized path for all tables involved);
// whether each candidate SELECT is actually mergeable is decided in
// runProcess, once the stamped schema and shard metadata exist.
func pushdownCandidates(prog *query.Program, cands map[string][]*query.SelectStmt) {
	excluded := map[string]bool{}
	for _, sel := range prog.Selects {
		refs := rel.ReferencedTables(sel.From)
		if len(refs) == 1 {
			cands[refs[0]] = append(cands[refs[0]], sel)
			continue
		}
		for _, r := range refs {
			excluded[r] = true
		}
	}
	for name := range excluded {
		delete(cands, name)
	}
}

// runProcesses executes every PROCESS statement in program order into
// env. pushed receives the releases computed on the pushdown path,
// keyed by statement; aggregate consumes them in place of
// ExecuteSelect. A later PROCESS into the same table overwrites both
// the env entry and its statements' releases, matching the
// last-write-wins semantics the env always had.
func (e *Engine) runProcesses(prog *query.Program, plans map[string]*splitPlan, cands map[string][]*query.SelectStmt,
	env rel.Env, pushed map[*query.SelectStmt][]rel.Release, sp *obs.Span) error {
	start := time.Now()
	for _, st := range prog.Processes {
		procSp := sp.Child("process")
		procSp.Set("table", st.Into)
		inst, rels, err := e.runProcess(st, plans[st.Input], cands[st.Into], procSp)
		procSp.End()
		if err != nil {
			return err
		}
		env[st.Into] = inst
		for sel, rs := range rels {
			pushed[sel] = rs
		}
	}
	e.met.stage("process", time.Since(start))
	return nil
}

// aggregate executes every SELECT to its raw releases — from the
// pushdown states where runProcesses produced them, else over the
// materialized tables — and assigns each release its ε. keep, when
// non-nil, drops releases before they are paid for.
func (e *Engine) aggregate(prog *query.Program, env rel.Env, pushed map[*query.SelectStmt][]rel.Release, keep func(rel.Release) bool, sp *obs.Span) ([]rel.Release, error) {
	var out []rel.Release
	err := e.stage(sp, "aggregate", func(sp *obs.Span) error {
		for _, st := range prog.Selects {
			rels, ok := pushed[st]
			if !ok {
				var err error
				rels, err = rel.ExecuteSelect(st, env)
				if err != nil {
					return err
				}
			}
			epsDefault := e.opts.DefaultQueryEpsilon / float64(len(rels))
			for _, r := range rels {
				if st.Consuming > 0 {
					r.Epsilon = st.Consuming
				} else {
					r.Epsilon = epsDefault
				}
				if keep != nil && !keep(r) {
					continue
				}
				out = append(out, r)
			}
		}
		sp.Set("releases", len(out))
		return nil
	})
	return out, err
}

// resolveSplit turns a SPLIT statement into one concrete chunking
// shard per listed camera.
func (e *Engine) resolveSplit(st *query.SplitStmt) (*splitPlan, error) {
	plan := &splitPlan{multi: len(st.Cameras) > 1}
	for _, camName := range st.Cameras {
		sh, err := e.resolveShard(st, camName)
		if err != nil {
			return nil, err
		}
		plan.shards = append(plan.shards, sh)
	}
	return plan, nil
}

// resolveShard resolves one camera of a SPLIT statement: window
// intersection, chunk/stride frame conversion at the camera's FPS,
// mask policy lookup, and region scheme resolution.
func (e *Engine) resolveShard(st *query.SplitStmt, camName string) (*splitShard, error) {
	cam, err := e.lookupCamera(camName)
	if err != nil {
		return nil, err
	}
	info := cam.cfg.Source.Info()
	clock := info.Clock()

	iv := vtime.NewInterval(clock.FrameAt(st.Begin), clock.FrameAt(st.End))
	iv = iv.Intersect(info.Bounds())
	if iv.Empty() {
		return nil, fmt.Errorf("core: SPLIT window %v–%v is outside camera %q's stream", st.Begin, st.End, camName)
	}

	toFrames := func(d query.Dur) (int64, error) {
		if d.IsFrames {
			return d.Frames, nil
		}
		return info.FPS.Frames(time.Duration(d.Seconds * float64(time.Second)))
	}
	chunkF, err := toFrames(st.Chunk)
	if err != nil {
		return nil, fmt.Errorf("core: chunk duration: %w", err)
	}
	if chunkF <= 0 {
		return nil, fmt.Errorf("core: chunk duration must be at least one frame")
	}
	strideF, err := toFrames(st.Stride)
	if err != nil {
		return nil, fmt.Errorf("core: stride: %w", err)
	}

	// Resolve the mask: the effective policy comes from the published
	// policy map entry; no mask means the camera default. Every camera
	// of a multi-camera SPLIT must publish the mask itself.
	src := cam.cfg.Source
	pol := cam.cfg.Policy
	if st.Mask != "" {
		if cam.cfg.Policies == nil {
			return nil, fmt.Errorf("core: camera %q publishes no masks", camName)
		}
		entry, ok := cam.cfg.Policies.Lookup(st.Mask)
		if !ok {
			return nil, fmt.Errorf("core: camera %q has no mask %q", camName, st.Mask)
		}
		src = video.Masked(src, entry.Mask)
		pol = entry.Policy
	}

	sh := &splitShard{
		cam: cam, pol: pol, maskID: st.Mask, schemeName: st.Region,
		interval: iv, chunkF: chunkF, strideF: strideF,
	}

	if st.Region != "" {
		sch, ok := cam.cfg.Schemes[st.Region]
		switch {
		case ok:
			// Soft boundaries require chunk size 1 so an individual
			// can be in at most one chunk at a time (§7.2).
			if !sch.Hard && chunkF != 1 {
				return nil, fmt.Errorf("core: scheme %q has soft boundaries; BY REGION requires BY TIME 1frame", st.Region)
			}
			sh.regionsPerEvent = 1
		default:
			// Grid Split (§7.2 extension): any chunk size, with the
			// per-event region count derived from the owner's
			// object-size and speed bounds.
			g, gok := cam.cfg.GridSchemes[st.Region]
			if !gok {
				return nil, fmt.Errorf("core: camera %q has no region scheme %q", camName, st.Region)
			}
			sch = g.Scheme()
			sh.regionsPerEvent = g.RegionsPerChunk(chunkF, info.FPS)
		}
		// In scheme order: row and merge order must not vary by run.
		for i, rsrc := range sch.Sources(src) {
			sh.splits = append(sh.splits, video.Split{
				Source:       rsrc,
				Interval:     iv,
				ChunkFrames:  chunkF,
				StrideFrames: strideF,
				Region:       sch.Regions[i].Name,
			})
		}
		sh.regions = len(sch.Regions)
	} else {
		sh.splits = []video.Split{{
			Source:       src,
			Interval:     iv,
			ChunkFrames:  chunkF,
			StrideFrames: strideF,
		}}
	}
	return sh, nil
}

// runProcess executes the analyst's executable over every chunk of the
// plan, one shard per camera. Multi-camera plans fan the shards out
// concurrently (each bounded by PerCameraParallelism, all of them by
// the engine-wide pool) and hit the chunk cache independently per
// camera — an N-camera query costs about the slowest shard's
// wall-clock, not the sum. Rows of multi-camera tables carry the
// trusted implicit camera column.
//
// Chunk results are memoized in the engine's chunk cache (when
// enabled): a chunk whose (content identity, executable, contract
// limits) key is already cached skips sandbox execution entirely.
// Caching affects only how fast the table materializes — admission and
// noise downstream never observe whether a row came from the sandbox
// or the cache.
//
// The shards produce one of two outputs. By default each returns its
// stamped rows and runProcess materializes the intermediate table. When
// every consuming SELECT of the table is a mergeable aggregation
// (cands, pre-grouped by pushdownCandidates; rel.PlanPartial accepts
// each), each shard instead folds chunk blocks into per-plan partial
// states and the full intermediate table is never materialized — peak
// memory scales with groups × cameras, not rows. The finalized releases
// are returned alongside an empty (schema- and metadata-correct)
// instance; they are differentially tested to match ExecuteSelect over
// the materialized table exactly. Per-chunk states are additionally
// memoized in the chunk cache's partial-state tier keyed on chunk
// content × plan identity, so a warm repeated or overlapping-window
// query skips both the sandbox and the per-chunk fold.
func (e *Engine) runProcess(st *query.ProcessStmt, plan *splitPlan, cands []*query.SelectStmt, sp *obs.Span) (*rel.Instance, map[*query.SelectStmt][]rel.Release, error) {
	if plan == nil || len(plan.shards) == 0 {
		return nil, nil, fmt.Errorf("core: PROCESS input %q has no SPLIT", st.Input)
	}
	fn, ok := e.registry.Lookup(st.Using)
	if !ok {
		return nil, nil, fmt.Errorf("core: executable %q not registered", st.Using)
	}
	cols := make([]table.Column, len(st.Schema))
	for i, c := range st.Schema {
		cols[i] = table.Column{Name: c.Name, Type: c.Type, Default: c.Default}
	}
	schema, err := table.NewSchema(cols...)
	if err != nil {
		return nil, nil, fmt.Errorf("core: PROCESS schema: %w", err)
	}
	// The executor always runs with a positive timeout. The parser
	// guarantees st.Timeout > 0 for parsed programs; programmatically
	// built Programs may leave it zero, which without the default would
	// make RunChecked block forever on a hung ProcessFunc — and, since
	// the slot-grace backstop scales off the timeout, leak that
	// execution's Parallelism slot permanently.
	effTimeout := st.Timeout
	if effTimeout <= 0 {
		effTimeout = e.opts.DefaultProcessTimeout
	}
	run := &processRun{
		st:        st,
		exec:      sandbox.Executor{Fn: fn, Timeout: effTimeout, MaxRows: st.MaxRows, Schema: schema},
		hasRegion: plan.shards[0].regions > 0,
		multi:     plan.multi,
		par:       e.opts.Parallelism,
	}
	run.full = schema.WithImplicitCols(run.hasRegion, run.multi)
	if len(plan.shards) > 1 {
		run.par = e.opts.PerCameraParallelism
	}

	// Shard metadata is derived entirely from the resolved plan — build
	// it up front so pushdown planning can see the same sensitivity
	// inputs ExecuteSelect would.
	metas := make([]rel.TableMeta, len(plan.shards))
	for i, sh := range plan.shards {
		info := sh.cam.cfg.Source.Info()
		clock := info.Clock()
		metas[i] = rel.TableMeta{
			Name:            st.Into,
			Camera:          sh.cam.cfg.Name,
			MaxRows:         st.MaxRows,
			ChunkFrames:     sh.chunkF,
			StrideFrames:    sh.strideF,
			FPS:             info.FPS,
			NumChunks:       sh.splits[0].NumChunks(),
			Begin:           clock.TimeOf(sh.interval.Start),
			End:             clock.TimeOf(sh.interval.End),
			Policy:          sh.pol,
			Regions:         sh.regions,
			RegionsPerEvent: sh.regionsPerEvent,
		}
	}

	// Pushdown decision: every candidate SELECT must plan as a mergeable
	// aggregation, else the whole table falls back to materialization
	// (a single table cannot be both streamed and materialized).
	e.planFor(run, plan, cands, metas)
	switch {
	case run.plans != nil:
		e.ppPlans.Add(uint64(len(run.plans)))
		sp.Set("pushdown_plans", len(run.plans))
	case len(cands) > 0:
		e.ppDeclined.Add(1)
	}

	// The one shard fan-out: every shard runs concurrently (a single
	// shard inline) into its own slot, and the slots are combined in
	// shard order below, so the output is deterministic however the
	// shards' completions interleave.
	outs := make([]shardOutput, len(plan.shards))
	forEachChunk(len(outs), len(outs), func(i int) {
		outs[i] = e.runShard(i, plan.shards[i], run, sp)
	})
	for _, out := range outs {
		if out.err != nil {
			return nil, nil, out.err
		}
	}
	data := table.New(run.full)
	if run.plans == nil {
		// One table, reserved once and filled in shard, split and chunk
		// order (dedup picks the same representative rows regardless of
		// shard timing), each block stamped with its implicit columns.
		n := 0
		for _, out := range outs {
			n += out.rows
		}
		data.Grow(n)
		for i, out := range outs {
			sh := plan.shards[i]
			for s, sc := range out.parts {
				split, camVal := &sh.splits[s], table.S(sh.cam.cfg.Name)
				clock := split.Source.Info().Clock()
				for k, blk := range sc.blocks {
					start := clock.TimeOf(split.IntervalAt(sc.ords[k]).Start)
					data.AppendBlock(blk, implicitConsts(start, split.Region, run.hasRegion, camVal, run.multi)...)
				}
				sc.release()
			}
		}
		return rel.NewInstance(data, metas...), nil, nil
	}
	// Merge the shard states in shard order (merge order cannot matter —
	// the property tests pin that — but determinism costs nothing). The
	// env still gets an instance with the right schema and shard
	// metadata, but no rows: every SELECT over this table is answered
	// from the merged states.
	rels := make(map[*query.SelectStmt][]rel.Release, len(cands))
	for p, pp := range run.plans {
		agg := pp.NewState()
		for _, out := range outs {
			pp.Merge(agg, out.states[p])
		}
		rels[cands[p]] = pp.Finalize(agg)
	}
	e.ppMerges.Add(uint64(len(outs) * len(run.plans)))
	return rel.NewInstance(data, metas...), rels, nil
}

// processRun is what every shard of one PROCESS execution shares: the
// statement, its sandbox contract (with the declared schema), the
// stamped full schema, the per-shard bound on concurrent chunks, and —
// when the table is answered by pushdown — the mergeable plan per
// candidate SELECT, and the key prefixes (planMemo). plans is nil on
// the materialized path.
type processRun struct {
	st               *query.ProcessStmt
	exec             sandbox.Executor
	full             table.Schema
	hasRegion, multi bool
	par              int
	*planMemo
}

// shardOutput is one shard's result: per region split its scratch, whose
// blocks (rows in all) runProcess stamps and releases, or under
// pushdown its merged state per plan (index-aligned with run.plans).
type shardOutput struct {
	parts  []*splitScratch
	rows   int
	states []*rel.PartialState
	err    error
}

// splitScratch is one region split's per-chunk working set, pooled so a
// warm query allocates nothing per chunk. release clears the slots
// first: a pooled slot never pins a cached table or payload, and slots
// past a slice's length are always nil.
type splitScratch struct {
	ords   []int64
	ivs    []vtime.Interval
	states [][]byte
	blocks []*table.Table
}

var scratchPool = sync.Pool{New: func() any { return new(splitScratch) }}

func (sc *splitScratch) release() {
	clear(sc.states)
	clear(sc.blocks)
	sc.states, sc.blocks = sc.states[:0], sc.blocks[:0]
	scratchPool.Put(sc)
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

// implicitConsts returns the trusted implicit column values stamped
// onto every row of one chunk: its start time, then the region and the
// camera where the table carries them.
func implicitConsts(start time.Time, region string, hasRegion bool, camVal table.Value, multi bool) []table.Value {
	consts := make([]table.Value, 0, 3)
	consts = append(consts, table.N(float64(start.Unix())))
	if hasRegion {
		consts = append(consts, table.S(region))
	}
	if multi {
		consts = append(consts, camVal)
	}
	return consts
}

// stampedView is blk widened to the full execution schema without a
// copy: blk's frozen columns are shared (the builder clips their
// capacity) and each implicit column is a constant sized to the block.
func stampedView(full table.Schema, blk *table.Table, consts []table.Value) *table.Table {
	b, nb := table.NewBuilder(full, blk.Len()), len(blk.Schema.Cols)
	for j, c := range full.Cols {
		switch {
		case j < nb && c.Type == table.DNumber:
			b.SetNums(j, blk.Nums(j))
		case j < nb:
			b.SetStrsView(j, blk.Strs(j), blk.Nums(j), blk.Valid(j))
		case c.Type == table.DNumber:
			b.SetConstNum(j, consts[j-nb].Num())
		default:
			b.SetConstStr(j, consts[j-nb].Str())
		}
	}
	return b.Build()
}

// fetchChunkBlock obtains one chunk's block in the declared schema —
// from the table cache, a singleflight peer, or a sandbox execution —
// and reports whether the block is clean (cache hits and shared
// results always are; an execution is clean unless the sandbox
// substituted fallback rows, which the cache then neither stores nor
// shares). key is nil exactly when the chunk cache is disabled. The
// video.Chunk is built only when the executable has to run: a hit costs
// the lookup and nothing else.
func (e *Engine) fetchChunkBlock(key []byte, split *video.Split, ord int64, exec sandbox.Executor, tl *shardTallies) (*table.Table, bool) {
	run := func() (*table.Table, bool) { return e.execChunk(split.ChunkAt(ord), exec, tl) }
	if e.chunkCache == nil {
		return run()
	}
	blk, clean, outcome := e.chunkCache.Do(key, flightWaitMultiple*exec.Timeout, run)
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
	// The engine-wide semaphore keeps the total number of
	// in-flight sandbox executions — across every query
	// running concurrently — at Parallelism, so serving
	// many analysts cannot oversubscribe the CPU and push
	// executables past their wall-clock TIMEOUT.
	//
	// The slot is released when the executable goroutine
	// exits (on a timeout that is later than RunChecked's
	// return, so a slow executable cannot be double-booked)
	// — except that a hung executable forfeits its slot
	// after a grace period, so one non-terminating
	// ProcessFunc degrades to a bounded CPU leak instead of
	// permanently wedging every analyst's queries.
	e.procSem <- struct{}{}
	var released atomic.Bool
	exec.Done = func() {
		if released.CompareAndSwap(false, true) {
			<-e.procSem
		}
	}
	execStart := time.Now()
	rows, clean := exec.RunChecked(chunk)
	execDur := time.Since(execStart)
	e.met.sandbox(execDur, clean)
	tl.sandboxNanos.Add(int64(execDur))
	// Arm the grace backstop only when the slot is still
	// held — a panic's goroutine has already exited and
	// released, so it needs no timer. (A release racing
	// this check just leaves one harmless no-op timer.)
	// exec.Timeout is always positive (runProcess substitutes
	// the default for TIMEOUT-less programmatic statements), so
	// the backstop can always arm.
	if !clean && !released.Load() {
		time.AfterFunc(slotGraceMultiple*exec.Timeout, exec.Done)
	}
	return table.FromRows(exec.Schema, rows), clean
}

// runShard executes the analyst's executable over every chunk of one
// camera shard and returns either each region split's blocks in
// deterministic chunk order or, under pushdown (run.plans), the shard's
// merged state per plan. run.par bounds the shard's concurrent sandbox
// executions (the per-camera bound of the sharded executor); the
// engine-wide procSem still bounds the total across all shards and
// queries. Each shard records one child span under the PROCESS span
// (concurrent shards annotate sibling spans; Span is mutex-guarded).
//
// Under pushdown every chunk leaves one encoded state per plan — the
// cached bytes (shared, read-only) when every plan's state is cached,
// which skips the sandbox and the fold, else the payload just folded —
// and the shard adds straight out of them. The only error paths are a
// fold failure, which PlanPartial's static checks make unreachable, and
// a state the worker accepted or encoded failing to merge, which
// immutable payloads make unreachable; both are propagated rather than
// swallowed so a bug turns into a query error, never a wrong release.
func (e *Engine) runShard(shard int, sh *splitShard, run *processRun, psp *obs.Span) (out shardOutput) {
	camName := sh.cam.cfg.Name
	camVal := table.S(camName)
	tl := &shardTallies{}
	ssp := psp.Child("shard")
	defer ssp.End()
	np, chunks := len(run.plans), 0
	if ssp != nil {
		ssp.Set("camera", camName)
		if np > 0 {
			ssp.Set("mode", "pushdown")
		}
		defer func() { ssp.Set("chunks", chunks) }()
	}
	for _, pp := range run.plans {
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
		var foldErr atomic.Pointer[error]
		prefixes := run.keys[shard][s]
		clock := split.Source.Info().Clock()
		forEachChunk(len(ords), run.par, func(i int) {
			iv := split.IntervalAt(ords[i])
			var tableKey []byte
			if e.chunkCache != nil {
				// Warm path: every plan's state is cached — no sandbox
				// execution, no fold, no decode. An absent, bit-rotten or
				// incompatible entry ends the lookups; the fold overwrites it.
				warm := np > 0
				for p := 0; warm && p < np; p++ {
					k := chunkKey(prefixes[1+p], iv)
					states[i*np+p], warm = e.chunkCache.GetState(k[:])
					warm = warm && run.plans[p].CompatibleEncoded(states[i*np+p])
				}
				if warm {
					tl.stateChunks.Add(1)
					return
				}
				k := chunkKey(prefixes[0], iv)
				tableKey = k[:]
			}
			blk, clean := e.fetchChunkBlock(tableKey, split, ords[i], run.exec, tl)
			if np == 0 {
				blocks[i] = blk
				return
			}
			// The fold sees exactly the rows this chunk contributes to
			// the materialized table (same consts, same order), without
			// copying the block.
			view := stampedView(run.full, blk, implicitConsts(clock.TimeOf(iv.Start), split.Region, run.hasRegion, camVal, run.multi))
			for p, pp := range run.plans {
				ps, err := pp.Partial(view, camName)
				if err != nil {
					err = fmt.Errorf("core: partial fold of chunk %d: %w", ords[i], err)
					foldErr.CompareAndSwap(nil, &err)
					return
				}
				tl.folds.Add(1)
				e.ppFolds.Add(1)
				states[i*np+p] = ps.EncodeBinary()
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
			if err := run.plans[k%np].MergeEncoded(out.states[k%np], raw); err != nil {
				out.err = fmt.Errorf("core: merge of chunk %d's state: %w", ords[k/np], err)
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
