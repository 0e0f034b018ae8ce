package rel

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"privid/internal/query"
	"privid/internal/table"
)

// Partial-aggregation pushdown. A SELECT whose relational chain is a
// stack of projections/filters over a single PROCESS table and whose
// outer aggregation is COUNT, SUM or ARGMAX (grouped COUNT) can be
// evaluated one chunk at a time: each chunk's rows fold into a small
// mergeable state (per-group counts and clamped sums plus per-camera
// row tallies), states merge associatively, and Finalize fills the
// values into the same release skeleton ExecuteSelect uses — the
// planner (plan.go) lays it out from trusted metadata and the query
// text alone, so the two paths cannot disagree on descriptions,
// sensitivities, windows, charged cameras or release order.
//
// Eligibility is decided statically, by the planner's own accept/reject
// rules: a statement the planner rejects would fail on the full
// materialization path too and is left to fail there, and one whose
// aggregate is not exactly mergeable (AVG, VAR) or whose chain is not
// distributive over chunks declines. An accepted plan evaluates no
// expression that can error, so the fold path needs no error parity
// bookkeeping.

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
	agg query.AggExpr
	// chain is the FROM chain's projections/filters, innermost first,
	// each with the output schema the planner gave it — so a fold moves
	// rows through them without planning anything again. Empty when the
	// FROM chain is the table reference itself.
	chain []chainStep
	// cams interns the shards' camera names (name → the same string),
	// so MergeEncoded can key CamRows from payload bytes without
	// allocating.
	cams map[string]string

	// rp is the statement's release skeleton: key slots, clamp range
	// and the finished releases Finalize fills values into.
	rp *releasePlan

	needSum bool
	// argCol is the direct column index of the aggregate argument when
	// it is a bare column reference or a range() call over one (the
	// single clamp by rp.rg reproduces evalVec + aggregateSel exactly);
	// -1 when the general expression evaluator is needed.
	argCol int

	id string
}

// chainStep is one inner SELECT of a plan's FROM chain and its planned
// output schema.
type chainStep struct {
	sel    *query.SelectExpr
	schema table.Schema
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

// PlanPartial decides whether st can be evaluated by per-chunk folding
// over the named table (whose full execution schema and trusted shard
// metadata are given) and, if so, returns the plan. A nil result means
// the statement must take the full materialization path — because it
// touches other tables, uses an operator that is not distributive over
// chunks (LIMIT, inner GROUP BY, JOIN, UNION), aggregates with AVG/VAR
// (not exactly mergeable), or is one the planner rejects (the full path
// then reports the error).
func PlanPartial(st *query.SelectStmt, name string, full table.Schema, metas []TableMeta) *PartialPlan {
	if len(metas) == 0 {
		return nil
	}
	switch st.Agg.Fun {
	case query.AggCount, query.AggSum, query.AggArgmax:
	default:
		return nil // AVG/VAR need count-coupled division; not exactly mergeable
	}
	// Unwrap the FROM chain: projections/filters over the single table.
	var chain []chainStep // outermost first until reversed below
	cur := st.From
unwrap:
	for {
		switch f := cur.(type) {
		case *query.SelectExpr:
			if f.Limit > 0 {
				return nil // LIMIT truncates at full-table row order
			}
			chain = append(chain, chainStep{sel: f})
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
	// The planner's rules, innermost-out: the chain's output schema and
	// constraints, then the release skeleton.
	schema, cons := full, tableCons(metas, full)
	slices.Reverse(chain)
	for i := range chain {
		var err error
		if schema, cons, err = selectCons(chain[i].sel, schema, cons); err != nil {
			return nil
		}
		chain[i].schema = schema
	}
	rp, err := planReleases(st, schema, cons)
	if err != nil {
		return nil
	}

	p := &PartialPlan{
		agg:     st.Agg,
		chain:   chain,
		cams:    make(map[string]string, len(metas)),
		rp:      rp,
		needSum: st.Agg.Fun == query.AggSum,
		argCol:  -1,
	}
	for _, m := range metas {
		p.cams[m.Camera] = m.Camera
	}
	if p.needSum {
		switch arg := st.Agg.Arg.(type) {
		case *query.ColRef:
			p.argCol = schema.Index(arg.Name)
		case *query.CallExpr:
			if arg.Name == "range" {
				if c, ok := arg.Args[0].(*query.ColRef); ok {
					p.argCol = schema.Index(c.Name)
				}
			}
		}
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
	fmt.Fprintf(&b, "|gb:%q|keys:", p.rp.col)
	for _, k := range p.rp.keys {
		fmt.Fprintf(&b, "%q;", k.Key())
	}
	if p.needSum {
		fmt.Fprintf(&b, "|rg:%x,%x", math.Float64bits(p.rp.rg.Lo), math.Float64bits(p.rp.rg.Hi))
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
	if p.rp.ci >= 0 {
		return len(p.rp.keys)
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
	for _, st := range p.chain {
		var err error
		if tbl, err = selectRows(st.sel, st.schema, tbl); err != nil {
			return nil, err // unreachable for a validated plan; stay defensive
		}
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
		lo, hi := p.rp.rg.Lo, p.rp.rg.Hi
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

	if p.rp.ci < 0 {
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

	ci, keys, slots := p.rp.ci, p.rp.keys, p.rp.slots
	for i := 0; i < n; i++ {
		h := tbl.HashCell(table.HashSeed, i, ci)
		sis := slots[h]
		if len(sis) == 0 {
			continue
		}
		for _, si := range sis {
			if tbl.At(i, ci).KeyEqual(keys[si]) {
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

// Finalize returns the statement's releases from a merged state: a copy
// of the planned skeleton with each release's value read from its slot,
// byte-identical to what ExecuteSelect produces over the concatenated
// table.
func (p *PartialPlan) Finalize(s *PartialState) []Release {
	out := append([]Release(nil), p.rp.releases...)
	if p.agg.Fun == query.AggArgmax {
		for si, k := range p.rp.keys {
			out[0].Scores = append(out[0].Scores, Score{Key: k, Raw: float64(s.Counts[si])})
		}
		return out
	}
	for i, si := range p.rp.slotOf {
		if p.needSum {
			out[i].Raw = s.Sums[si]
		} else {
			out[i].Raw = float64(s.Counts[si])
		}
	}
	return out
}
