package rel

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"privid/internal/query"
	"privid/internal/table"
)

// Partial-aggregation pushdown. A SELECT whose relational chain is a
// stack of projections/filters over a single PROCESS table and whose
// outer aggregation is COUNT, SUM or ARGMAX (grouped COUNT) can be
// evaluated one chunk at a time: each chunk's rows fold into a small
// mergeable state (per-group counts and clamped sums plus per-camera
// row tallies), states merge associatively, and Finalize reconstructs
// the exact releases ExecuteSelect would have produced — sensitivities
// included, because Fig. 10's constraint propagation is data-independent
// (ΔP, C̃r, buckets and the per-camera KeyDeltas partition all derive
// from trusted metadata and the query text, never from row contents).
//
// Eligibility is decided statically. The plan accepts a statement only
// when no expression it would ever evaluate can error (checkExpr mirrors
// the evaluator's failure branches), so the fold path needs no error
// parity bookkeeping: any statement that could fail — or whose
// aggregate is not exactly mergeable (AVG, VAR) — declines and takes
// the full materialization path.

// PartialState is the mergeable aggregate of some subset of chunks:
// fixed parallel arrays indexed by plan key slot (a single slot for
// ungrouped aggregates), plus row tallies for observability and
// per-camera accounting.
type PartialState struct {
	// Counts holds the per-slot row counts (the aggregate itself for
	// COUNT and ARGMAX scores).
	Counts []int64
	// Sums holds the per-slot range-clamped sums; nil unless the plan
	// aggregates SUM.
	Sums []float64
	// Rows and Chunks tally the folded input.
	Rows, Chunks int64
	// CamRows tallies rows per contributing camera, so per-camera
	// accounting composes from merged states.
	CamRows map[string]int64
}

// PartialPlan is the static aggregation plan of one eligible SELECT:
// everything Finalize needs, precomputed from trusted metadata so that
// folding a chunk touches only its rows.
type PartialPlan struct {
	agg  query.AggExpr
	from query.RelExpr

	tableName string
	metas     []TableMeta
	// cams interns the shards' camera names (name → the same string),
	// so MergeEncoded can key CamRows from payload bytes without
	// allocating.
	cams map[string]string
	// bare is true when the FROM chain is the table reference itself,
	// letting Fold skip relational evaluation entirely.
	bare bool

	cons   Constraints
	begin  time.Time
	end    time.Time
	spans  map[string][2]time.Time
	schema table.Schema // output schema of the FROM chain

	grouped bool
	col     string // GROUP BY column
	ci      int    // its index in schema
	keys    []table.Value
	windows [][2]time.Time
	slots   map[uint64][]int

	needSum bool
	rg      Range
	width   float64
	// argCol is the direct column index of the aggregate argument when
	// it is a bare column reference or a range() call over one (the
	// single clamp by rg reproduces evalVec + aggregateSel exactly);
	// -1 when the general expression evaluator is needed.
	argCol int

	argmaxSens float64
	kd         map[string]float64
	hasKD      bool
	kc         map[string][]string
	hasKC      bool

	id string
}

// ReferencedTables lists the distinct table names a relational
// expression reads, in first-reference order.
func ReferencedTables(r query.RelExpr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(query.RelExpr)
	walk = func(r query.RelExpr) {
		switch rel := r.(type) {
		case *query.TableRef:
			if !seen[rel.Name] {
				seen[rel.Name] = true
				out = append(out, rel.Name)
			}
		case *query.SelectExpr:
			walk(rel.From)
		case *query.GroupExpr:
			walk(rel.From)
		case *query.JoinExpr:
			walk(rel.Left)
			walk(rel.Right)
		case *query.UnionExpr:
			walk(rel.Left)
			walk(rel.Right)
		}
	}
	walk(r)
	return out
}

// checkExpr statically verifies that evaluating e over any table with
// the given schema cannot fail: it mirrors every error and panic branch
// of evalVec/binVec/callVec (unknown column, unknown operator, unknown
// function, non-literal range/bin bounds, non-positive bin width,
// unsupported node). A nil error means evaluation is total.
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
			if _, ok := ex.Args[1].(*query.NumLit); !ok {
				return fmt.Errorf("range() bound is not a literal")
			}
			if _, ok := ex.Args[2].(*query.NumLit); !ok {
				return fmt.Errorf("range() bound is not a literal")
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

// PlanPartial decides whether st can be evaluated by per-chunk folding
// over the named table (whose full execution schema and trusted shard
// metadata are given) and, if so, returns the plan. A nil result means
// the statement must take the full materialization path — because it
// touches other tables, uses an operator that is not distributive over
// chunks (LIMIT, inner GROUP BY, JOIN, UNION), aggregates with AVG/VAR
// (not exactly mergeable), or could raise an evaluation error that the
// fold path would not reproduce.
func PlanPartial(st *query.SelectStmt, name string, full table.Schema, metas []TableMeta) *PartialPlan {
	if len(metas) == 0 {
		return nil
	}
	// Unwrap the FROM chain: projections/filters over the single table.
	var wrappers []*query.SelectExpr // outermost first
	cur := st.From
unwrap:
	for {
		switch f := cur.(type) {
		case *query.SelectExpr:
			if f.Limit > 0 {
				return nil // LIMIT truncates at full-table row order
			}
			wrappers = append(wrappers, f)
			cur = f.From
		case *query.TableRef:
			if f.Name != name {
				return nil
			}
			break unwrap
		default:
			return nil
		}
	}
	// Static totality check of every expression the chain evaluates,
	// tracking the evolving schema innermost-out.
	schema := full
	for i := len(wrappers) - 1; i >= 0; i-- {
		w := wrappers[i]
		if w.Where != nil {
			if checkExpr(w.Where, schema) != nil {
				return nil
			}
		}
		if w.Star {
			continue
		}
		cols := make([]table.Column, 0, len(w.Items))
		for j, it := range w.Items {
			if checkExpr(it.Expr, schema) != nil {
				return nil
			}
			cname := it.Alias
			if cname == "" {
				cname = exprName(it.Expr, j)
			}
			cols = append(cols, table.Column{Name: cname, Type: exprType(it.Expr, schema)})
		}
		schema = table.Schema{Cols: cols}
	}

	// Constraint propagation is data-independent: run the chain once
	// over a zero-row table to obtain the output constraints.
	env0 := Env{name: {Metas: metas, Data: table.New(full)}}
	empty, cons, err := execRel(st.From, env0)
	if err != nil {
		return nil
	}

	p := &PartialPlan{
		agg:       st.Agg,
		from:      st.From,
		tableName: name,
		metas:     metas,
		cams:      make(map[string]string, len(metas)),
		bare:      len(wrappers) == 0,
		cons:      cons,
		spans:     cameraSpans(cons),
		schema:    empty.Schema,
		argCol:    -1,
	}
	p.begin, p.end = cons.Window()
	for _, m := range metas {
		p.cams[m.Camera] = m.Camera
	}

	switch st.Agg.Fun {
	case query.AggCount, query.AggSum, query.AggArgmax:
	default:
		return nil // AVG/VAR need count-coupled division; not exactly mergeable
	}
	p.grouped = len(st.GroupBy) > 0
	if st.Agg.Fun == query.AggArgmax && !p.grouped {
		return nil
	}
	if p.grouped && len(st.GroupBy) != 1 {
		return nil
	}

	if st.Agg.Fun == query.AggSum {
		p.needSum = true
		rg, ok := exprRange(st.Agg.Arg, cons.Ranges)
		if !ok {
			return nil
		}
		if checkExpr(st.Agg.Arg, p.schema) != nil {
			return nil
		}
		p.rg = rg
		p.width = rg.Width()
		switch arg := st.Agg.Arg.(type) {
		case *query.ColRef:
			p.argCol = p.schema.Index(arg.Name)
		case *query.CallExpr:
			if arg.Name == "range" {
				if c, ok := arg.Args[0].(*query.ColRef); ok {
					p.argCol = p.schema.Index(c.Name)
				}
			}
		}
	}

	if p.grouped {
		p.col = st.GroupBy[0]
		p.ci = p.schema.Index(p.col)
		if p.ci < 0 {
			return nil
		}
		switch {
		case len(st.GroupKeys) > 0:
			p.keys = st.GroupKeys
			for range p.keys {
				p.windows = append(p.windows, [2]time.Time{p.begin, p.end})
			}
		case cons.Trusted[p.col]:
			spec, ok := cons.Buckets[p.col]
			if !ok {
				return nil
			}
			p.keys, p.windows = enumerateBuckets(spec, p.begin, p.end)
		default:
			return nil
		}
		p.slots = make(map[uint64][]int, len(p.keys))
		for si, k := range p.keys {
			h := k.KeyHash()
			p.slots[h] = append(p.slots[h], si)
		}
		if st.Agg.Fun == query.AggArgmax {
			p.argmaxSens = cons.Delta
			if kd, ok := cons.KeyDeltas[p.col]; ok {
				maxD, covered := 0.0, true
				for _, k := range p.keys {
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
					p.argmaxSens = maxD
				}
			}
		}
		p.kd, p.hasKD = cons.KeyDeltas[p.col]
		p.kc, p.hasKC = cons.KeyCams[p.col]
	}

	p.id = p.renderID(st, full)
	return p
}

// renderID derives the plan's identity string: every static input the
// folded state depends on — the table's stamped schema, the relational
// chain, the aggregate, the group keys (slot layout) and the clamp
// range. Combined with a chunk's content identity it keys the
// partial-state cache tier.
func (p *PartialPlan) renderID(st *query.SelectStmt, full table.Schema) string {
	var b strings.Builder
	b.WriteString("pps1|")
	for _, c := range full.Cols {
		fmt.Fprintf(&b, "%q:%d:%q;", c.Name, c.Type, c.Default.Key())
	}
	b.WriteString("|")
	renderRel(&b, st.From)
	fmt.Fprintf(&b, "|agg:%d,star:%t,arg:", st.Agg.Fun, st.Agg.Star)
	renderExpr(&b, st.Agg.Arg)
	fmt.Fprintf(&b, "|gb:%q|keys:", p.col)
	for _, k := range p.keys {
		fmt.Fprintf(&b, "%q;", k.Key())
	}
	if p.needSum {
		fmt.Fprintf(&b, "|rg:%x,%x", math.Float64bits(p.rg.Lo), math.Float64bits(p.rg.Hi))
	}
	return b.String()
}

// renderRel writes a canonical form of the (already validated) chain:
// SelectExprs over one TableRef.
func renderRel(b *strings.Builder, r query.RelExpr) {
	switch rel := r.(type) {
	case *query.TableRef:
		fmt.Fprintf(b, "T(%q)", rel.Name)
	case *query.SelectExpr:
		b.WriteString("S(")
		if rel.Star {
			b.WriteString("*")
		}
		for i, it := range rel.Items {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(b, "%q=", it.Alias)
			renderExpr(b, it.Expr)
		}
		b.WriteString(";w=")
		renderExpr(b, rel.Where)
		b.WriteString(";f=")
		renderRel(b, rel.From)
		b.WriteString(")")
	}
}

// renderExpr writes a canonical, fully parenthesized form of an
// expression; floats render as exact bit patterns.
func renderExpr(b *strings.Builder, e query.Expr) {
	switch ex := e.(type) {
	case nil:
		b.WriteString("-")
	case *query.ColRef:
		fmt.Fprintf(b, "c(%q)", ex.Name)
	case *query.NumLit:
		fmt.Fprintf(b, "n(%x)", math.Float64bits(ex.V))
	case *query.StrLit:
		fmt.Fprintf(b, "s(%q)", ex.V)
	case *query.BinExpr:
		fmt.Fprintf(b, "b(%q,", ex.Op)
		renderExpr(b, ex.L)
		b.WriteString(",")
		renderExpr(b, ex.R)
		b.WriteString(")")
	case *query.CallExpr:
		fmt.Fprintf(b, "f(%q", ex.Name)
		for _, a := range ex.Args {
			b.WriteString(",")
			renderExpr(b, a)
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "?(%T)", e)
	}
}

// ID returns the plan identity string (see renderID).
func (p *PartialPlan) ID() string { return p.id }

// Slots returns the number of key slots (1 for ungrouped aggregates).
func (p *PartialPlan) Slots() int {
	if p.grouped {
		return len(p.keys)
	}
	return 1
}

// NewState returns an empty state shaped for this plan.
func (p *PartialPlan) NewState() *PartialState {
	s := &PartialState{Counts: make([]int64, p.Slots())}
	if p.needSum {
		s.Sums = make([]float64, p.Slots())
	}
	return s
}

// Compatible reports whether a (possibly decoded) state matches this
// plan's shape.
func (p *PartialPlan) Compatible(s *PartialState) bool {
	if s == nil || len(s.Counts) != p.Slots() {
		return false
	}
	if p.needSum != (s.Sums != nil) || (s.Sums != nil && len(s.Sums) != p.Slots()) {
		return false
	}
	return true
}

// Partial folds one chunk's stamped table into a fresh state. The
// chunk table must carry the full execution schema the plan was built
// against; camera attributes the chunk's rows for per-camera tallies.
func (p *PartialPlan) Partial(chunk *table.Table, camera string) (*PartialState, error) {
	s := p.NewState()
	tbl := chunk
	if !p.bare {
		t, _, err := execRel(p.from, Env{p.tableName: {Metas: p.metas, Data: chunk}})
		if err != nil {
			return nil, err // unreachable for a validated plan; stay defensive
		}
		tbl = t
	}
	n := tbl.Len()
	s.Chunks = 1
	s.Rows = int64(n)
	if camera != "" && n > 0 {
		s.CamRows = map[string]int64{camera: int64(n)}
	}
	if n == 0 {
		return s, nil
	}

	var argAt func(i int) float64
	if p.needSum {
		lo, hi := p.rg.Lo, p.rg.Hi
		if p.argCol >= 0 {
			nums := tbl.Nums(p.argCol)
			argAt = func(i int) float64 {
				x := nums[i]
				if x < lo {
					x = lo
				}
				if x > hi {
					x = hi
				}
				return x
			}
		} else {
			av, err := evalVec(p.agg.Arg, tbl)
			if err != nil {
				return nil, err // unreachable: argument is statically total
			}
			argAt = func(i int) float64 {
				x := av.numAt(i)
				if x < lo {
					x = lo
				}
				if x > hi {
					x = hi
				}
				return x
			}
		}
	}

	if !p.grouped {
		s.Counts[0] = int64(n)
		if p.needSum {
			var sum float64
			for i := 0; i < n; i++ {
				sum += argAt(i)
			}
			s.Sums[0] = sum
		}
		return s, nil
	}

	ci := p.ci
	for i := 0; i < n; i++ {
		h := tbl.HashCell(table.HashSeed, i, ci)
		sis := p.slots[h]
		if len(sis) == 0 {
			continue
		}
		for _, si := range sis {
			if tbl.At(i, ci).KeyEqual(p.keys[si]) {
				s.Counts[si]++
				if p.needSum {
					s.Sums[si] += argAt(i)
				}
			}
		}
	}
	return s, nil
}

// Merge folds src into dst. Merging is commutative and associative on
// the values the differential harness exercises: counts are integers,
// and sums only combine range-clamped (finite or NaN) chunk subtotals.
func (p *PartialPlan) Merge(dst, src *PartialState) {
	for i, c := range src.Counts {
		dst.Counts[i] += c
	}
	for i, v := range src.Sums {
		dst.Sums[i] += v
	}
	dst.Rows += src.Rows
	dst.Chunks += src.Chunks
	if len(src.CamRows) > 0 {
		if dst.CamRows == nil {
			dst.CamRows = make(map[string]int64, len(src.CamRows))
		}
		for cam, r := range src.CamRows {
			dst.CamRows[cam] += r
		}
	}
}

// Finalize reconstructs the statement's releases from a merged state,
// byte-identical to what ExecuteSelect produces over the concatenated
// table: descriptions, sensitivities, per-bucket windows, per-camera
// charge windows and release order (sorted by group key).
func (p *PartialPlan) Finalize(s *PartialState) []Release {
	base := Release{Fun: p.agg.Fun, Begin: p.begin, End: p.end}

	if !p.grouped {
		r := base
		r.Desc = aggDesc(p.agg, "")
		switch p.agg.Fun {
		case query.AggCount:
			r.Raw = float64(s.Counts[0])
			r.Sensitivity = p.cons.Delta
		case query.AggSum:
			r.Raw = s.Sums[0]
			r.Sensitivity = p.cons.Delta * p.width
		}
		return []Release{withWindows(r, p.spans, nil)}
	}

	if p.agg.Fun == query.AggArgmax {
		r := base
		r.Desc = aggDesc(p.agg, p.col)
		r.Sensitivity = p.argmaxSens
		for si, k := range p.keys {
			r.Scores = append(r.Scores, Score{Key: k, Raw: float64(s.Counts[si])})
		}
		return []Release{withWindows(r, p.spans, nil)}
	}

	var out []Release
	for i, k := range p.keys {
		delta := p.cons.Delta
		if p.hasKD {
			delta = p.kd[k.Str()]
		}
		r := base
		r.Desc = aggDesc(p.agg, "") + "[" + p.col + "=" + k.Str() + "]"
		r.Key = k
		r.HasKey = true
		switch p.agg.Fun {
		case query.AggCount:
			r.Raw = float64(s.Counts[i])
			r.Sensitivity = delta
		case query.AggSum:
			r.Raw = s.Sums[i]
			r.Sensitivity = delta * p.width
		}
		r.Begin, r.End = p.windows[i][0], p.windows[i][1]
		var only []string
		if p.hasKC {
			only = p.kc[k.Str()]
			if only == nil {
				only = []string{}
			}
		}
		out = append(out, withWindows(r, p.spans, only))
	}
	sortReleases(out)
	return out
}

// sortReleases orders keyed releases by group key: numeric keys before
// string keys, numeric keys ascending (NaN first), string keys
// lexicographic. The sort is stable so duplicate keys keep their plan
// order. Both the streaming and materialized paths apply it, making
// release order — and therefore the seeded noise draw each release
// consumes — independent of chunk arrival order.
func sortReleases(rs []Release) {
	sort.SliceStable(rs, func(i, j int) bool {
		return releaseKeyLess(rs[i].Key, rs[j].Key)
	})
}

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
