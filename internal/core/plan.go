package core

// The plan step (Algorithm 1's order): a program is planned whole before
// any chunk is touched, so a denied query runs nothing. The file never
// names the row container (rel's plan_test.go checks it on the AST).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/rel"
	"privid/internal/sandbox"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

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
	// max region-chunks one individual can influence per temporal chunk
	regionsPerEvent int // (>1 only under Grid Split)
}

// splitPlan is a resolved SPLIT or MERGE statement: one shard per
// contributing camera. multi marks chunk sets whose rows carry the
// trusted camera column (multi-camera SPLIT and every MERGE output).
type splitPlan struct {
	shards []*splitShard
	multi  bool
}

// programPlan is a program's table-blind plan, as a Prepared keeps it: per
// PROCESS and per SELECT in program order, every planned release with
// its ε, and which SELECTs are answered by folding their table's chunks.
type programPlan struct {
	selects []*query.SelectStmt
	procs   []procPlan
	sels    []*rel.Plan
	rels    []rel.Release
	folded  []bool
}

// procPlan is one PROCESS prepared against its chunk set: its sandbox
// contract, stamped schema, per-shard metadata and view (mask, scheme),
// the fold plan and index of every SELECT it answers by pushdown (nil
// when it materializes; declined when its readers all read only it but
// do not all fold), and its cache-key prefixes per shard and split.
type procPlan struct {
	st               *query.ProcessStmt
	exec             sandbox.Executor
	full             table.Schema
	hasRegion, multi bool
	metas            []rel.TableMeta
	views            [][2]string
	plans            []*rel.PartialPlan
	sels             []int
	declined         bool
	keys             [][][]string
}

// Prepared is a parsed program, the tag its WAL charge records carry
// (Prepare's hashes the source; "" tags by the charge set), and a slot
// for its last plan. The engine never writes Program, so jobs of one
// text share one Prepared, and concurrent runs swap the slot atomically.
type Prepared struct {
	Program *query.Program
	Tag     string
	plan    atomic.Pointer[programPlan]
}

// The program cache holds at most 1,024 texts and 1 MiB of source (one
// submission's cap): a dashboard's panels or Appendix D's standing
// queries fit with room to spare, and the ASTs it pins stay a few MiB.
// A slot keeps a plan of at most maxSlotShards shards, so the cache
// holds at most 65,536 shards' metadata and keys.
const maxPrepared, maxPreparedBytes, maxSlotShards = 1024, 1 << 20, 65536 / 1024

// Prepare returns src's Prepared from the program cache, parsing only on
// a miss. A parse error is not cached, so it reads the same every time.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	return e.prepared.Load(src, nil, func() (*Prepared, int, error) {
		prog, err := query.Parse(src)
		if err != nil {
			return nil, 0, err
		}
		sum := sha256.Sum256([]byte(src))
		return &Prepared{Program: prog, Tag: hex.EncodeToString(sum[:8])}, len(src), nil
	})
}

// ParseCacheStats counts Prepare's program-cache hits and misses.
func (e *Engine) ParseCacheStats() (hits, misses uint64) {
	return e.prepared.Hits.Load(), e.prepared.Misses.Load()
}

// plan resolves p's chunk sets into sets and returns its plan: the
// slot's when every catalog input it was derived from is unchanged, else
// (a first run, a live camera whose bounds grew) a fresh one, which the
// slot keeps if it spans at most maxSlotShards shards.
func (e *Engine) plan(p *Prepared, sets map[string]*splitPlan, sp *obs.Span) (pp *programPlan, err error) {
	err = e.stage(sp, "split", func(sp *obs.Span) error {
		if err := e.resolvePlans(p.Program, sets); err != nil {
			return err
		}
		sp.Set("chunk_sets", len(sets))
		if pp = p.plan.Load(); pp != nil && pp.matches(p.Program, sets) {
			e.planHits.Add(1)
			return nil
		}
		e.planMisses.Add(1)
		var shards int
		if pp, shards, err = e.newPlan(p.Program, sets); err == nil && shards <= maxSlotShards {
			p.plan.Store(pp)
		}
		return err
	})
	return pp, err
}

// matches reports whether m was planned from prog's statements over the
// catalog sets resolves to: each shard's metadata, mask and scheme.
func (m *programPlan) matches(prog *query.Program, sets map[string]*splitPlan) bool {
	if len(m.procs) != len(prog.Processes) || !slices.Equal(m.selects, prog.Selects) {
		return false
	}
	for i := range m.procs {
		pr := &m.procs[i]
		set := sets[pr.st.Input]
		if pr.st != prog.Processes[i] || set == nil || set.multi != pr.multi || len(set.shards) != len(pr.metas) {
			return false
		}
		for j, sh := range set.shards {
			if !shardMeta(pr.st, sh).Equal(pr.metas[j]) || pr.views[j] != [2]string{sh.maskID, sh.schemeName} {
				return false
			}
		}
	}
	return true
}

// newPlan plans every PROCESS in order (a later one into a name replaces
// the earlier in the catalog), every SELECT against that catalog, then
// pushdown. It also returns the number of shards it spans.
func (e *Engine) newPlan(prog *query.Program, sets map[string]*splitPlan) (*programPlan, int, error) {
	m := &programPlan{
		selects: slices.Clone(prog.Selects),
		procs:   make([]procPlan, len(prog.Processes)),
		sels:    make([]*rel.Plan, len(prog.Selects)),
		folded:  make([]bool, len(prog.Selects)),
	}
	cat, size := rel.Catalog{}, 0
	for i, st := range prog.Processes {
		if err := e.prepareProcess(&m.procs[i], st, sets[st.Input]); err != nil {
			return nil, 0, err
		}
		cat[st.Into] = rel.Shape{Schema: m.procs[i].full, Metas: m.procs[i].metas}
		size += len(m.procs[i].metas)
	}
	for j, st := range prog.Selects {
		p, err := rel.PlanSelect(st, cat)
		if err != nil {
			return nil, 0, err
		}
		eps := st.Consuming
		if eps <= 0 {
			eps = e.opts.DefaultQueryEpsilon / float64(len(p.Releases))
		}
		for _, r := range p.Releases {
			r.Epsilon = eps
			m.rels = append(m.rels, r)
		}
		m.sels[j] = p
	}
	m.pushdown(sets)
	return m, size, nil
}

// prepareProcess fills pr for st over its chunk set.
func (e *Engine) prepareProcess(pr *procPlan, st *query.ProcessStmt, set *splitPlan) error {
	if set == nil || len(set.shards) == 0 {
		return fmt.Errorf("core: PROCESS input %q has no SPLIT", st.Input)
	}
	fn, ok := e.registry.Lookup(st.Using)
	if !ok {
		return fmt.Errorf("core: executable %q not registered", st.Using)
	}
	cols := make([]table.Column, len(st.Schema))
	for i, c := range st.Schema {
		cols[i] = table.Column{Name: c.Name, Type: c.Type, Default: c.Default}
	}
	schema, err := table.NewSchema(cols...)
	if err != nil {
		return fmt.Errorf("core: PROCESS schema: %w", err)
	}
	// The executor always runs with a positive timeout: a programmatic
	// Program may leave it zero, which would let a hung ProcessFunc block
	// forever and, since the slot-grace backstop scales off the timeout,
	// leak its Parallelism slot permanently.
	effTimeout := st.Timeout
	if effTimeout <= 0 {
		effTimeout = e.opts.DefaultProcessTimeout
	}
	pr.st = st
	pr.exec = sandbox.Executor{Fn: fn, Timeout: effTimeout, MaxRows: st.MaxRows, Schema: schema}
	pr.hasRegion, pr.multi = set.shards[0].regions > 0, set.multi
	pr.full = schema.WithImplicitCols(pr.hasRegion, pr.multi)
	for _, sh := range set.shards {
		pr.metas = append(pr.metas, shardMeta(st, sh))
		pr.views = append(pr.views, [2]string{sh.maskID, sh.schemeName})
	}
	return nil
}

// shardMeta is the trusted metadata of st's table over one shard.
func shardMeta(st *query.ProcessStmt, sh *splitShard) rel.TableMeta {
	info := sh.cam.cfg.Source.Info()
	clock := info.Clock()
	return rel.TableMeta{
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

// pushdown decides, for the last PROCESS into each name, whether its
// table folds instead of materializing: when SELECTs read it, none reads
// it beside another table (a JOIN or UNION partner), and every reader
// has a fold plan — a table cannot be both streamed and materialized.
// Then it derives each PROCESS's cache-key prefixes per shard and region
// split (in the scheme's region order): the table key, then a state key
// per fold plan.
func (m *programPlan) pushdown(sets map[string]*splitPlan) {
	later := map[string]bool{}
	for i := len(m.procs) - 1; i >= 0; i-- {
		pr := &m.procs[i]
		var sels []int
		skip := later[pr.st.Into] // an earlier PROCESS into the name feeds nothing
		for j, p := range m.sels {
			if slices.Contains(p.Tables, pr.st.Into) {
				sels, skip = append(sels, j), skip || len(p.Tables) > 1
			}
		}
		later[pr.st.Into] = true
		switch {
		case skip || len(sels) == 0:
		case slices.ContainsFunc(sels, func(j int) bool { return m.sels[j].Partial == nil }):
			pr.declined = true
		default:
			for _, j := range sels {
				pr.plans, pr.sels, m.folded[j] = append(pr.plans, m.sels[j].Partial), append(pr.sels, j), true
			}
		}
		for _, sh := range sets[pr.st.Input].shards {
			keys := make([][]string, len(sh.splits))
			for s, split := range sh.splits {
				identity := chunkIdentity(sh.cam.cfg.Name, sh.maskID, sh.schemeName, split.Region,
					pr.st.Using, pr.st.Timeout, pr.st.MaxRows, pr.exec.Schema, sh.chunkF, sh.strideF)
				keys[s] = append(make([]string, 0, 1+len(pr.plans)), keyPrefix(tableKeyKind, "", identity))
				for _, pp := range pr.plans {
					keys[s] = append(keys[s], keyPrefix(stateKeyKind, pp.ID(), identity))
				}
			}
			pr.keys = append(pr.keys, keys)
		}
	}
}

// skeleton copies the planned releases keep accepts (all when keep is
// nil). kept marks, over every planned release, the ones copied; nil
// when all are.
func (m *programPlan) skeleton(keep func(rel.Release) bool) (rels []rel.Release, kept []bool) {
	if keep == nil {
		return slices.Clone(m.rels), nil
	}
	kept = make([]bool, len(m.rels))
	for i, r := range m.rels {
		if kept[i] = keep(r); kept[i] {
			rels = append(rels, r)
		}
	}
	return rels, kept
}

// resolvePlans resolves every SPLIT, then every MERGE, into the chunk
// set it names.
func (e *Engine) resolvePlans(prog *query.Program, plans map[string]*splitPlan) error {
	for _, st := range prog.Splits {
		set := &splitPlan{multi: len(st.Cameras) > 1}
		for _, camName := range st.Cameras {
			sh, err := e.resolveShard(st, camName)
			if err != nil {
				return err
			}
			set.shards = append(set.shards, sh)
		}
		plans[st.Into] = set
	}
	// MERGE unions resolved chunk sets (validation guarantees distinct
	// inputs sharing a region scheme). The merged set always stamps camera
	// provenance, even over a single camera: sensitivity composes per
	// shard either way.
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
	return nil
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
			sh.splits = append(sh.splits, video.Split{Source: rsrc, Interval: iv, ChunkFrames: chunkF, StrideFrames: strideF, Region: sch.Regions[i].Name})
		}
		sh.regions = len(sch.Regions)
	} else {
		sh.splits = []video.Split{{Source: src, Interval: iv, ChunkFrames: chunkF, StrideFrames: strideF}}
	}
	return sh, nil
}
