package rel

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"privid/internal/query"
	"privid/internal/table"
)

// The planner. Everything an analyst observes about a SELECT other than
// the noised values — whether the statement is accepted, how many
// releases it has, their keys, windows, charged cameras and noise scale —
// is decided in this file, from schemas, the query text and trusted shard
// metadata (§6, Fig. 10, Thm. 6.1). Nothing here can see a row: the file
// never names the row container, and it is the only non-test file of the
// package that builds a Constraints or assigns a Sensitivity, ΔP or C̃s
// (plan_test.go checks both on the AST). PlanSelect is the one caller of
// the rules: it walks a statement once, from a catalog that holds no
// rows, and exec.go, agg.go and partial.go read the layout it recorded
// and otherwise only move rows, so the materialized path, the pushdown
// path and a statement over an empty table cannot disagree about any of
// it.

// Shape is what the planner may know of a table: its stamped schema and
// one trusted meta per camera shard, never its rows.
type Shape struct {
	Schema table.Schema
	Metas  []TableMeta
}

// Catalog resolves table names for the planner.
type Catalog map[string]Shape

// node is one planned relational operator: the output schema and
// constraints its Fig. 10 rule derived, its planned inputs, and the
// layout its row operator follows (idx: a GROUP BY's key columns or a
// UNION's right-side index of each left column; join: a JOIN's).
type node struct {
	rel    query.RelExpr
	in     []*node
	schema table.Schema
	cons   Constraints
	idx    []int
	join   joinShape
}

// Plan is one SELECT statement planned against a catalog: everything
// about its output but the values. It is read-only, so one may serve
// concurrent executions. Releases is the skeleton in final order, every
// field but Raw, Scores and Epsilon set (Execute and Finalize return
// filled copies); Tables lists the tables read, in first-reference
// order; Partial is the per-chunk fold plan, nil unless the statement
// is a mergeable aggregation over projections and filters of one table.
type Plan struct {
	Releases []Release
	Tables   []string
	Partial  *PartialPlan

	st   *query.SelectStmt
	root *node
	rp   *releasePlan
}

// PlanSelect accepts or rejects st over the tables of cat and, when it
// accepts, plans it: one walk of the FROM expression through Fig. 10's
// rules, innermost first (a JOIN's or UNION's left side before its
// right), then the outer aggregation's release skeleton.
func PlanSelect(st *query.SelectStmt, cat Catalog) (*Plan, error) {
	p := &Plan{st: st}
	var walk func(r query.RelExpr) (*node, error)
	walk = func(r query.RelExpr) (*node, error) {
		n := &node{rel: r}
		var ins []query.RelExpr
		switch rel := r.(type) {
		case *query.SelectExpr:
			ins = []query.RelExpr{rel.From}
		case *query.GroupExpr:
			ins = []query.RelExpr{rel.From}
		case *query.JoinExpr:
			ins = []query.RelExpr{rel.Left, rel.Right}
		case *query.UnionExpr:
			ins = []query.RelExpr{rel.Left, rel.Right}
		}
		for _, in := range ins {
			c, err := walk(in)
			if err != nil {
				return nil, err
			}
			n.in = append(n.in, c)
		}
		var err error
		switch rel := r.(type) {
		case *query.TableRef:
			sh, ok := cat[rel.Name]
			switch {
			case !ok:
				return nil, fmt.Errorf("rel: unknown table %q", rel.Name)
			case len(sh.Metas) == 0:
				return nil, fmt.Errorf("rel: table %q has no shard metadata", rel.Name)
			case !slices.Contains(p.Tables, rel.Name):
				p.Tables = append(p.Tables, rel.Name)
			}
			n.schema, n.cons = sh.Schema, tableCons(sh.Metas, sh.Schema)
		case *query.SelectExpr:
			n.schema, n.cons, err = selectCons(rel, n.in[0].schema, n.in[0].cons)
		case *query.GroupExpr:
			n.schema = n.in[0].schema
			n.idx, n.cons, err = groupCons(rel, n.schema, n.in[0].cons)
		case *query.JoinExpr:
			n.join, n.cons, err = joinCons(rel, n.in[0].schema, n.in[1].schema, n.in[0].cons, n.in[1].cons)
			n.schema = n.join.schema
		case *query.UnionExpr:
			n.schema = n.in[0].schema
			n.idx, n.cons, err = unionCons(n.schema, n.in[1].schema, n.in[0].cons, n.in[1].cons)
		default:
			err = fmt.Errorf("rel: unsupported expression %T", r)
		}
		return n, err
	}
	var err error
	if p.root, err = walk(st.From); err != nil {
		return nil, err
	}
	if p.rp, err = planReleases(st, p.root.schema, p.root.cons); err != nil {
		return nil, err
	}
	p.Releases = p.rp.releases
	p.Partial = partialOf(st, p.root, p.rp)
	return p, nil
}

// checkExpr statically verifies that evaluating e over any table with
// the given schema cannot fail: it mirrors every error and panic branch
// of evalVec/binVec/callVec (unknown column, unknown operator, unknown
// function, non-literal range/bin bounds, non-positive bin width,
// unsupported node) in the evaluator's traversal order and with its
// texts. A nil error means evaluation is total. Statement rejection runs
// through here and never through the evaluator, so it cannot depend on
// whether the analyst's executable produced a row.
func checkExpr(e query.Expr, schema table.Schema) error {
	switch ex := e.(type) {
	case *query.ColRef:
		if schema.Index(ex.Name) < 0 {
			return fmt.Errorf("unknown column %q", ex.Name)
		}
		return nil
	case *query.NumLit, *query.StrLit:
		return nil
	case *query.BinExpr:
		if err := checkExpr(ex.L, schema); err != nil {
			return err
		}
		if err := checkExpr(ex.R, schema); err != nil {
			return err
		}
		switch ex.Op {
		case "+", "-", "*", "/", "=", "!=", "<", "<=", ">", ">=", "AND", "OR":
			return nil
		}
		return fmt.Errorf("unknown operator %q", ex.Op)
	case *query.CallExpr:
		switch ex.Name {
		case "range":
			if len(ex.Args) != 3 {
				return fmt.Errorf("range() wants 3 args")
			}
			if err := checkExpr(ex.Args[0], schema); err != nil {
				return err
			}
			for _, bound := range ex.Args[1:] {
				if _, ok := bound.(*query.NumLit); !ok {
					return fmt.Errorf("range() bound is not a literal")
				}
			}
			return nil
		case "hour", "day":
			if len(ex.Args) != 1 {
				return fmt.Errorf("%s() wants 1 arg", ex.Name)
			}
			return checkExpr(ex.Args[0], schema)
		case "bin":
			if len(ex.Args) != 2 {
				return fmt.Errorf("bin() wants 2 args")
			}
			if err := checkExpr(ex.Args[0], schema); err != nil {
				return err
			}
			w, ok := ex.Args[1].(*query.NumLit)
			if !ok {
				return fmt.Errorf("bin() width is not a literal")
			}
			if w.V <= 0 {
				return fmt.Errorf("bin width must be positive")
			}
			return nil
		}
		return fmt.Errorf("unknown function %q", ex.Name)
	default:
		return fmt.Errorf("unsupported expression %T", e)
	}
}

// tableCons is the base case of Fig. 10: the constraints of a PROCESS
// table with the given stamped schema and one trusted meta per camera
// shard.
func tableCons(metas []TableMeta, schema table.Schema) Constraints {
	// Fig. 10's UNION rule composes the per-camera shards: ΔP and C̃s
	// of the whole table are the sums over shards.
	cons := Constraints{
		Ranges:  map[string]Range{},
		Trusted: map[string]bool{table.ChunkColumn: true},
		Buckets: map[string]BucketSpec{},
		Metas:   append([]TableMeta(nil), metas...),
	}
	for _, m := range metas {
		cons.Delta += m.Delta()
		cons.Size += m.Size()
	}
	// The chunk column's bucket width is trusted only when every shard
	// chunks at the same wall-clock width (a frame-count chunk spec on
	// cameras with different FPS produces mismatched widths).
	chunkW := metas[0].FPS.Seconds(metas[0].ChunkFrames)
	uniform := true
	for _, m := range metas[1:] {
		if m.FPS.Seconds(m.ChunkFrames) != chunkW {
			uniform = false
			break
		}
	}
	if uniform {
		cons.Buckets[table.ChunkColumn] = BucketSpec{WidthSec: chunkW}
	}
	if schema.Has(table.RegionColumn) {
		cons.Trusted[table.RegionColumn] = true
	}
	if schema.Has(table.CameraColumn) {
		// Engine-stamped provenance: rows with camera=c can only come
		// from c's shards, so the column partitions the table with
		// per-key ΔP equal to each camera's own shard delta.
		cons.Trusted[table.CameraColumn] = true
		kd := map[string]float64{}
		kc := map[string][]string{}
		for _, m := range metas {
			kd[m.Camera] += m.Delta()
			kc[m.Camera] = []string{m.Camera}
		}
		cons.KeyDeltas = map[string]map[string]float64{table.CameraColumn: kd}
		cons.KeyCams = map[string]map[string][]string{table.CameraColumn: kc}
		if len(kd) == 1 {
			cons.LiteralCols = map[string]string{table.CameraColumn: metas[0].Camera}
		}
	}
	return cons
}

// selectCons is Fig. 10's σ and Π rules: it accepts or rejects an inner
// SELECT over an input with the given schema and constraints, and
// derives the output schema and constraints. Every expression the
// evaluator will see is checked here first — WHERE, then the projected
// items in order, the evaluator's own order — so an unknown column or
// function or a non-positive bin width is rejected whether or not any
// row would have reached it.
func selectCons(rel *query.SelectExpr, in table.Schema, cons Constraints) (table.Schema, Constraints, error) {
	if rel.Where != nil {
		if err := checkExpr(rel.Where, in); err != nil {
			return table.Schema{}, Constraints{}, err
		}
	}
	out := cons // a plan is read-only: derivations replace maps, never write them
	// LIMIT binds C̃s (Fig. 10's σ_limit rule).
	if rel.Limit > 0 {
		out.Size = math.Min(out.Size, float64(rel.Limit))
	}
	if rel.Star {
		return in, out, nil
	}
	// Projection: name and type each item, deriving the new constraint
	// maps (Fig. 10's Π rules).
	cols := make([]table.Column, len(rel.Items))
	for i, it := range rel.Items {
		if err := checkExpr(it.Expr, in); err != nil {
			return table.Schema{}, Constraints{}, err
		}
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr, i)
		}
		cols[i] = table.Column{Name: name, Type: exprType(it.Expr, in)}
	}
	out.Ranges = map[string]Range{}
	out.Trusted = map[string]bool{}
	out.Buckets = map[string]BucketSpec{}
	out.LiteralCols = map[string]string{}
	out.KeyDeltas = map[string]map[string]float64{}
	out.KeyCams = map[string]map[string][]string{}
	out.DedupKeys = nil
	for i, it := range rel.Items {
		name := cols[i].Name
		if rg, ok := exprRange(it.Expr, cons.Ranges); ok {
			out.Ranges[name] = rg
		}
		if exprTrusted(it.Expr, cons.Trusted) {
			out.Trusted[name] = true
		}
		if b, ok := exprBucket(it.Expr, cons.Buckets); ok {
			out.Buckets[name] = b
		}
		switch ex := it.Expr.(type) {
		case *query.StrLit:
			out.LiteralCols[name] = ex.V
		case *query.ColRef:
			if v, ok := cons.LiteralCols[ex.Name]; ok {
				out.LiteralCols[name] = v
			}
			if kd, ok := cons.KeyDeltas[ex.Name]; ok {
				out.KeyDeltas[name] = kd
			}
			if kc, ok := cons.KeyCams[ex.Name]; ok {
				out.KeyCams[name] = kc
			}
		}
	}
	return table.Schema{Cols: cols}, out, nil
}

// groupCons is Fig. 10's dedup rule for an inner GROUP BY: it resolves
// the key columns (returned as schema indices) and derives the output
// constraints.
func groupCons(rel *query.GroupExpr, in table.Schema, cons Constraints) ([]int, Constraints, error) {
	idx := make([]int, len(rel.Keys))
	for i, k := range rel.Keys {
		idx[i] = in.Index(k)
		if idx[i] < 0 {
			return nil, Constraints{}, fmt.Errorf("rel: GROUP BY unknown column %q", k)
		}
	}
	if len(rel.WithKeys) > 0 && len(rel.Keys) != 1 {
		return nil, Constraints{}, fmt.Errorf("rel: WITH KEYS requires a single group column")
	}
	out := cons
	// Dedup can only shrink the relation; without explicit keys the
	// bound carries over unchanged.
	if len(rel.WithKeys) > 0 {
		out.Size = math.Min(out.Size, float64(len(rel.WithKeys)))
	}
	out.DedupKeys = append([]string(nil), rel.Keys...)
	return idx, out, nil
}

// joinShape is the static layout of a JOIN's output: its schema (key
// columns, then left non-keys, then right non-keys, suffixed on
// clashes), the key columns' indices on each side, and the source of
// every non-key output column.
type joinShape struct {
	schema     table.Schema
	lIdx, rIdx []int
	picks      []pick
}

// pick names the input cell a non-key JOIN output column copies.
type pick struct {
	side int // 0 = left, 1 = right
	col  int
}

// joinCons is Fig. 10's JOIN rule: it accepts or rejects the join of two
// inputs on rel.On and derives the output layout and constraints.
func joinCons(rel *query.JoinExpr, ls, rs table.Schema, lc, rc Constraints) (joinShape, Constraints, error) {
	// Fig. 10 restricts joins to inputs grouped on the join key(s):
	// otherwise a single event's rows multiply through the join and
	// the sensitivity bound no longer holds.
	if !keysMatch(lc.DedupKeys, rel.On) || !keysMatch(rc.DedupKeys, rel.On) {
		return joinShape{}, Constraints{}, fmt.Errorf("rel: JOIN inputs must be GROUP BY'd on the join key(s) %v", rel.On)
	}
	onSet := make(map[string]bool, len(rel.On))
	used := make(map[string]bool, len(rel.On))
	js := joinShape{lIdx: make([]int, len(rel.On)), rIdx: make([]int, len(rel.On))}
	for i, k := range rel.On {
		js.lIdx[i] = ls.Index(k)
		js.rIdx[i] = rs.Index(k)
		if js.lIdx[i] < 0 || js.rIdx[i] < 0 {
			return joinShape{}, Constraints{}, fmt.Errorf("rel: JOIN column %q missing", k)
		}
		onSet[k], used[k] = true, true
		js.schema.Cols = append(js.schema.Cols, table.Column{Name: k, Type: ls.Cols[js.lIdx[i]].Type})
	}
	// The additive JOIN rule (§6.3 "primed table" argument): a value
	// need only appear in either input to appear in the intersection,
	// so ΔP adds.
	oc := Constraints{
		Delta:     lc.Delta + rc.Delta,
		Ranges:    map[string]Range{},
		Trusted:   map[string]bool{},
		Buckets:   map[string]BucketSpec{},
		Metas:     append(append([]TableMeta(nil), lc.Metas...), rc.Metas...),
		DedupKeys: append([]string(nil), rel.On...),
	}
	if rel.Outer {
		oc.Size = lc.Size + rc.Size
	} else {
		oc.Size = math.Min(lc.Size, rc.Size)
	}
	for _, k := range rel.On {
		mergeCol(oc, lc, rc, k)
	}
	for side, in := range [2]table.Schema{ls, rs} {
		src, suffix := lc, "_l"
		if side == 1 {
			src, suffix = rc, "_r"
		}
		for i, c := range in.Cols {
			if onSet[c.Name] {
				continue
			}
			name := c.Name
			for used[name] {
				name += suffix
			}
			used[name] = true
			js.schema.Cols = append(js.schema.Cols, table.Column{Name: name, Type: c.Type})
			js.picks = append(js.picks, pick{side, i})
			if rg, ok := src.Ranges[c.Name]; ok {
				if rel.Outer {
					// A missing side contributes the 0 default.
					rg = Range{math.Min(rg.Lo, 0), math.Max(rg.Hi, 0)}
				}
				oc.Ranges[name] = rg
			}
			if src.Trusted[c.Name] && !rel.Outer {
				oc.Trusted[name] = true
			}
		}
	}
	return js, oc, nil
}

// mergeCol derives what an output column fed by the same-named column
// of both inputs (a JOIN key, a UNION column) inherits: a range only
// when both sides bound it, trust only when both sides are trusted, a
// bucket spec only when both sides carry the same one.
func mergeCol(oc, lc, rc Constraints, name string) {
	lr, lok := lc.Ranges[name]
	rr, rok := rc.Ranges[name]
	if lok && rok {
		oc.Ranges[name] = Range{math.Min(lr.Lo, rr.Lo), math.Max(lr.Hi, rr.Hi)}
	}
	oc.Trusted[name] = lc.Trusted[name] && rc.Trusted[name]
	lb, lbok := lc.Buckets[name]
	if rb, rbok := rc.Buckets[name]; lbok && rbok && lb == rb {
		oc.Buckets[name] = lb
	}
}

func keysMatch(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, k := range a {
		set[k] = true
	}
	for _, k := range b {
		if !set[k] {
			return false
		}
	}
	return true
}

// unionCons is Fig. 10's UNION rule. Column sets must match by name;
// remap[i] is the right-side index of left column i (the right side is
// re-ordered to the left schema).
func unionCons(ls, rs table.Schema, lc, rc Constraints) ([]int, Constraints, error) {
	remap := make([]int, len(ls.Cols))
	for i, c := range ls.Cols {
		remap[i] = rs.Index(c.Name)
		if remap[i] < 0 {
			return nil, Constraints{}, fmt.Errorf("rel: UNION column %q missing on right side", c.Name)
		}
	}
	if len(rs.Cols) != len(ls.Cols) {
		return nil, Constraints{}, fmt.Errorf("rel: UNION column counts differ (%d vs %d)", len(ls.Cols), len(rs.Cols))
	}
	oc := Constraints{
		Delta:       lc.Delta + rc.Delta,
		Size:        lc.Size + rc.Size,
		Ranges:      map[string]Range{},
		Trusted:     map[string]bool{},
		Buckets:     map[string]BucketSpec{},
		Metas:       append(append([]TableMeta(nil), lc.Metas...), rc.Metas...),
		LiteralCols: map[string]string{},
		KeyDeltas:   map[string]map[string]float64{},
		KeyCams:     map[string]map[string][]string{},
	}
	for _, c := range ls.Cols {
		mergeCol(oc, lc, rc, c.Name)
		// A column that is a (possibly different) trusted literal on
		// each side partitions the union: rows with each value can
		// only come from the branch(es) that carry it, so each key's
		// event influence is that branch's Δ — Fig. 10's per-key
		// ARGMAX sensitivity.
		ld, lok2 := branchDeltas(lc, c.Name)
		rd, rok2 := branchDeltas(rc, c.Name)
		if lok2 && rok2 {
			merged := make(map[string]float64, len(ld)+len(rd))
			for k, v := range ld {
				merged[k] = v
			}
			for k, v := range rd {
				merged[k] += v
			}
			oc.KeyDeltas[c.Name] = merged
			lcm, rcm := branchCams(lc, c.Name), branchCams(rc, c.Name)
			cams := make(map[string][]string, len(lcm)+len(rcm))
			for k, v := range lcm {
				cams[k] = mergeCams(cams[k], v)
			}
			for k, v := range rcm {
				cams[k] = mergeCams(cams[k], v)
			}
			oc.KeyCams[c.Name] = cams
		}
		if lv, ok := lc.LiteralCols[c.Name]; ok {
			if rv, ok2 := rc.LiteralCols[c.Name]; ok2 && rv == lv {
				oc.LiteralCols[c.Name] = lv
			}
		}
	}
	return remap, oc, nil
}

// branchDeltas returns the per-key ΔP partition of a relation on one
// column: an existing KeyDeltas entry, or a single-key map when the
// column is a trusted constant for the whole relation.
func branchDeltas(c Constraints, col string) (map[string]float64, bool) {
	if kd, ok := c.KeyDeltas[col]; ok && len(kd) > 0 {
		return kd, true
	}
	if v, ok := c.LiteralCols[col]; ok {
		return map[string]float64{v: c.Delta}, true
	}
	return nil, false
}

// branchCams returns the per-key camera attribution of a relation on
// one column, mirroring branchDeltas: an existing KeyCams entry, or —
// for a trusted whole-relation constant — the full camera set of the
// branch under that key.
func branchCams(c Constraints, col string) map[string][]string {
	if kc, ok := c.KeyCams[col]; ok && len(kc) > 0 {
		return kc
	}
	if v, ok := c.LiteralCols[col]; ok {
		cams := make([]string, len(c.Metas))
		for i, m := range c.Metas {
			cams[i] = m.Camera
		}
		return map[string][]string{v: mergeCams(cams, nil)}
	}
	return nil
}

// mergeCams unions two camera lists into one sorted, duplicate-free list.
func mergeCams(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, lst := range [2][]string{a, b} {
		for _, c := range lst {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Strings(out)
	return out
}

// releasePlan is the data-independent skeleton of one SELECT's output:
// the key slots rows are partitioned into, the range its argument is
// clamped to, and the finished releases — everything but the values.
type releasePlan struct {
	// col is the GROUP BY column and ci its index in the FROM schema;
	// "" and -1 when the statement is ungrouped (one slot, one release).
	col string
	ci  int
	// keys holds one release key per slot, in request (WITH KEYS) or
	// bucket order; slots maps a key hash to the slots holding a key
	// with that hash, so a row matching several identical requested
	// keys lands in each.
	keys  []table.Value
	slots map[uint64][]int
	// rg is the declared range SUM/AVG/VAR clamp their argument to.
	rg Range
	// releases is the statement's output in final order with every
	// field but Raw and Scores set; releases[i] reads its value from
	// slot slotOf[i]. An ARGMAX plan has one release scoring every slot.
	// The plan is read-only: Execute and Finalize copy the slice and fill
	// in the copy, whose elements still share Cameras and CamWindows with
	// every other copy.
	releases []Release
	slotOf   []int
}

// planReleases accepts or rejects the outer aggregation of st over a
// FROM relation with the given schema and constraints and, when it
// accepts, lays out the complete release skeleton.
func planReleases(st *query.SelectStmt, schema table.Schema, cons Constraints) (*releasePlan, error) {
	begin, end := cons.window()
	spans := cameraSpans(cons)
	rp := &releasePlan{ci: -1}
	var windows [][2]time.Time // per-slot bucket spans of a trusted time column
	switch {
	case len(st.GroupBy) == 0:
		if st.Agg.Fun == query.AggArgmax {
			return nil, fmt.Errorf("rel: ARGMAX requires GROUP BY")
		}
	case len(st.GroupBy) != 1:
		return nil, fmt.Errorf("rel: outer GROUP BY supports a single column (got %v)", st.GroupBy)
	default:
		rp.col = st.GroupBy[0]
		if rp.ci = schema.Index(rp.col); rp.ci < 0 {
			return nil, fmt.Errorf("rel: GROUP BY unknown column %q", rp.col)
		}
		// Determine the release keys: explicit WITH KEYS, or every bucket
		// of a trusted time column. Analyst-defined columns without
		// explicit keys are rejected — otherwise the mere presence of a
		// rare key leaks information (§6.2).
		switch {
		case len(st.GroupKeys) > 0:
			rp.keys = st.GroupKeys // each depends on the whole window
		case cons.Trusted[rp.col]:
			spec, ok := cons.Buckets[rp.col]
			if !ok {
				return nil, fmt.Errorf("rel: cannot enumerate buckets of trusted column %q; use hour()/day()/bin()", rp.col)
			}
			rp.keys, windows = enumerateBuckets(spec, begin, end)
		default:
			return nil, fmt.Errorf("rel: GROUP BY %q requires WITH KEYS (analyst-defined keys leak data)", rp.col)
		}
		rp.slots = make(map[uint64][]int, len(rp.keys))
		for si, k := range rp.keys {
			h := k.KeyHash()
			rp.slots[h] = append(rp.slots[h], si)
		}
	}
	kd, hasKD := cons.KeyDeltas[rp.col]
	base := Release{Fun: st.Agg.Fun, Begin: begin, End: end}

	if st.Agg.Fun == query.AggArgmax {
		r := base
		r.Desc = aggDesc(st.Agg, rp.col)
		// Fig. 10: ARGMAX sensitivity is max_k Δ(σ_a=k(R)). When the
		// group column provably partitions the relation by source
		// branch (a trusted per-table literal, or the implicit camera
		// column), each key's influence is its own branch's Δ, not the
		// union's sum.
		r.Sensitivity = cons.Delta
		if hasKD {
			maxD, covered := 0.0, true
			for _, k := range rp.keys {
				d, ok := kd[k.Str()]
				if !ok {
					covered = false
					break
				}
				if d > maxD {
					maxD = d
				}
			}
			if covered {
				r.Sensitivity = maxD
			}
		}
		rp.releases = []Release{withWindows(r, spans, nil)}
		return rp, nil
	}

	// SUM, AVG and VAR need a numeric argument with a declared range
	// (Fig. 10's constraint column) that the evaluator cannot fail on.
	var width float64
	if st.Agg.Fun != query.AggCount {
		rg, ok := exprRange(st.Agg.Arg, cons.Ranges)
		if !ok {
			return nil, fmt.Errorf("rel: %s requires a range constraint on its argument (use range(col, lo, hi))", st.Agg.Fun)
		}
		if err := checkExpr(st.Agg.Arg, schema); err != nil {
			return nil, err
		}
		rp.rg, width = rg, rg.width()
	}

	// Release order is part of the engine's determinism contract: the
	// seeded noise stream is consumed in release order, so it must not
	// depend on how chunks happened to concatenate. Slots are ordered by
	// group key — stably, so duplicate requested keys keep their request
	// order — before the releases are built. An ungrouped statement has
	// one keyless slot.
	n := 1
	if rp.ci >= 0 {
		n = len(rp.keys)
	}
	rp.slotOf = make([]int, n)
	for si := range rp.slotOf {
		rp.slotOf[si] = si
	}
	if n > 1 { // the call allocates even when there is nothing to order
		sort.SliceStable(rp.slotOf, func(i, j int) bool {
			return releaseKeyLess(rp.keys[rp.slotOf[i]], rp.keys[rp.slotOf[j]])
		})
	}
	kc, hasKC := cons.KeyCams[rp.col]
	rp.releases = make([]Release, 0, n)
	for _, si := range rp.slotOf {
		r := base
		r.Desc = aggDesc(st.Agg, "")
		delta := cons.Delta
		var only []string
		if rp.ci >= 0 {
			k := rp.keys[si]
			r.Desc += "[" + rp.col + "=" + k.Str() + "]"
			r.Key, r.HasKey = k, true
			if windows != nil {
				r.Begin, r.End = windows[si][0], windows[si][1]
			}
			// A trusted partition column (per-table literal tags, or the
			// implicit camera column) confines each key's rows to its own
			// branch: the release's sensitivity is that branch's ΔP and
			// only that branch's cameras are charged. Keys outside the
			// partition can never hold rows, so their releases carry zero
			// sensitivity and charge nothing.
			if hasKD {
				delta = kd[k.Str()]
			}
			if hasKC {
				if only = kc[k.Str()]; only == nil {
					only = []string{}
				}
			}
		}
		var err error
		if r.Sensitivity, err = sensitivity(st.Agg.Fun, delta, cons.Size, width); err != nil {
			return nil, err
		}
		rp.releases = append(rp.releases, withWindows(r, spans, only))
	}
	return rp, nil
}

// sensitivity is Δ(Q) of one release (Fig. 10's aggregation rules): the
// most the aggregate can change with the presence or absence of a
// (ρ, K)-bounded event influencing at most delta rows of a relation of
// at most size rows, each contributing at most width. It takes no table:
// the bound holds for every filling the analyst's executable could
// produce.
func sensitivity(fun query.AggFun, delta, size, width float64) (float64, error) {
	switch fun {
	case query.AggCount:
		return delta, nil
	case query.AggSum:
		return delta * width, nil
	case query.AggAvg:
		if math.IsInf(size, 1) {
			return 0, fmt.Errorf("rel: AVG requires a bounded relation size (use LIMIT or GROUP BY ... WITH KEYS)")
		}
		return delta * width / math.Max(size, 1), nil
	case query.AggVar:
		if math.IsInf(size, 1) {
			return 0, fmt.Errorf("rel: VAR requires a bounded relation size")
		}
		return square(delta*width) / math.Max(size, 1), nil
	default:
		return 0, fmt.Errorf("rel: unsupported aggregation %v", fun)
	}
}

func square(x float64) float64 { return x * x }

// releaseKeyLess orders group keys: numeric keys before string keys,
// numeric keys ascending (NaN first), string keys lexicographic.
func releaseKeyLess(a, b table.Value) bool {
	an := a.Type() == table.DNumber
	bn := b.Type() == table.DNumber
	if an != bn {
		return an
	}
	if an {
		x, y := a.Num(), b.Num()
		switch {
		case x < y:
			return true
		case x > y:
			return false
		case math.IsNaN(x) && !math.IsNaN(y):
			return true
		default:
			return false
		}
	}
	return a.Str() < b.Str()
}
