package rel

import (
	"fmt"
	"strconv"

	"privid/internal/query"
	"privid/internal/table"
)

// execRel evaluates a relational expression, returning its rows and
// the propagated privacy constraints. Each operator asks the planner
// (plan.go) for its accept/reject decision, output layout and output
// constraints, then moves rows. Operators work directly on the
// tables' columnar backing: selections produce index vectors, group and
// join keys are hashed (with exact-equality collision checks) instead
// of concatenated into strings, and output columns are preallocated
// from the input cardinality.
func execRel(r query.RelExpr, env Env) (*table.Table, Constraints, error) {
	switch rel := r.(type) {
	case *query.TableRef:
		return execTableRef(rel, env)
	case *query.SelectExpr:
		return execSelect(rel, env)
	case *query.GroupExpr:
		return execGroup(rel, env)
	case *query.JoinExpr:
		return execJoin(rel, env)
	case *query.UnionExpr:
		return execUnion(rel, env)
	default:
		return nil, Constraints{}, fmt.Errorf("rel: unsupported expression %T", r)
	}
}

func execTableRef(rel *query.TableRef, env Env) (*table.Table, Constraints, error) {
	inst, ok := env[rel.Name]
	if !ok {
		return nil, Constraints{}, fmt.Errorf("rel: unknown table %q", rel.Name)
	}
	if len(inst.Metas) == 0 {
		return nil, Constraints{}, fmt.Errorf("rel: table %q has no shard metadata", rel.Name)
	}
	return inst.Data, tableCons(inst.Metas, inst.Data.Schema), nil
}

func execSelect(rel *query.SelectExpr, env Env) (*table.Table, Constraints, error) {
	in, cons, err := execRel(rel.From, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	// Accept/reject, the output schema and the output constraints are
	// settled before any row is looked at, so a static error keeps its
	// precedence over anything the rows could cause.
	schema, out, err := selectCons(rel, in.Schema, cons)
	if err != nil {
		return nil, Constraints{}, err
	}
	t, err := selectRows(rel, schema, in)
	return t, out, err
}

// selectRows moves the rows of an inner SELECT that selectCons accepted
// with output schema schema: WHERE, LIMIT, then the projection. It is
// all of the statement a per-chunk fold repeats (PartialPlan.Partial).
func selectRows(rel *query.SelectExpr, schema table.Schema, in *table.Table) (*table.Table, error) {
	n := in.Len()
	// WHERE filters on the input schema, producing a selection vector.
	all := true // identity selection: every row kept, in order
	var sel []int
	if rel.Where != nil && n > 0 {
		cond, err := evalVec(rel.Where, in)
		if err != nil {
			return nil, err
		}
		sel = selTrue(cond)
		all = false
	}
	kept := n
	if !all {
		kept = len(sel)
	}
	if rel.Limit > 0 && kept > rel.Limit {
		if all {
			sel = make([]int, rel.Limit)
			for i := range sel {
				sel[i] = i
			}
			all = false
		} else {
			sel = sel[:rel.Limit]
		}
		kept = rel.Limit
	}
	if rel.Star {
		if all {
			return in, nil
		}
		return in.Gather(sel), nil
	}
	if kept == 0 {
		return table.New(schema), nil // no rows survive: nothing to evaluate
	}
	b := table.NewBuilder(schema, kept)
	for i, it := range rel.Items {
		v, err := evalVec(it.Expr, in)
		if err != nil {
			return nil, err
		}
		if all {
			setCol(b, i, v)
		} else {
			setCol(b, i, gatherVec(v, sel))
		}
	}
	return b.Build(), nil
}

// hashRowKey chains the key hash of row i over the idx columns.
func hashRowKey(t *table.Table, idx []int, i int) uint64 {
	h := table.HashSeed
	for _, j := range idx {
		h = t.HashCell(h, i, j)
	}
	return h
}

// rowKeysEqual reports grouping-key equality of two rows (possibly of
// different tables) over parallel key-column lists.
func rowKeysEqual(a *table.Table, ai int, aIdx []int, b *table.Table, bi int, bIdx []int) bool {
	for k := range aIdx {
		if !table.CellKeyEqual(a, ai, aIdx[k], b, bi, bIdx[k]) {
			return false
		}
	}
	return true
}

func execGroup(rel *query.GroupExpr, env Env) (*table.Table, Constraints, error) {
	in, cons, err := execRel(rel.From, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	idx, oc, err := groupCons(rel, in.Schema, cons)
	if err != nil {
		return nil, Constraints{}, err
	}
	var allow map[uint64][]table.Value
	if len(rel.WithKeys) > 0 {
		allow = make(map[uint64][]table.Value, len(rel.WithKeys))
		for _, k := range rel.WithKeys {
			allow[k.KeyHash()] = append(allow[k.KeyHash()], k)
		}
	}
	// Deduplicate: one representative row (the first) per key tuple.
	n := in.Len()
	seen := make(map[uint64][]int)
	sel := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if allow != nil {
			ok := false
			for _, v := range allow[in.HashCell(table.HashSeed, i, idx[0])] {
				if in.At(i, idx[0]).KeyEqual(v) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		h := hashRowKey(in, idx, i)
		dup := false
		for _, p := range seen[h] {
			if rowKeysEqual(in, i, idx, in, p, idx) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], i)
		sel = append(sel, i)
	}
	return in.Gather(sel), oc, nil
}

// firstPerKey returns, for each distinct key tuple in row order, the
// index of its first row, plus the hash map for key lookups.
func firstPerKey(t *table.Table, idx []int) (order []int, byHash map[uint64][]int) {
	byHash = make(map[uint64][]int)
	for i := 0; i < t.Len(); i++ {
		h := hashRowKey(t, idx, i)
		dup := false
		for _, p := range byHash[h] {
			if rowKeysEqual(t, i, idx, t, p, idx) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		byHash[h] = append(byHash[h], i)
		order = append(order, i)
	}
	return order, byHash
}

// lookupKey finds the recorded row of `in` (via byHash over inIdx)
// whose key equals row i of probe (over probeIdx), or -1.
func lookupKey(byHash map[uint64][]int, in *table.Table, inIdx []int, probe *table.Table, probeIdx []int, i int) int {
	h := hashRowKey(probe, probeIdx, i)
	for _, p := range byHash[h] {
		if rowKeysEqual(probe, i, probeIdx, in, p, inIdx) {
			return p
		}
	}
	return -1
}

func execJoin(rel *query.JoinExpr, env Env) (*table.Table, Constraints, error) {
	lt, lc, err := execRel(rel.Left, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	rt, rc, err := execRel(rel.Right, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	js, oc, err := joinCons(rel, lt.Schema, rt.Schema, lc, rc)
	if err != nil {
		return nil, Constraints{}, err
	}
	lIdx, rIdx, cols := js.lIdx, js.rIdx, js.schema.Cols

	// First row per key on each side (inputs are deduped, but stay
	// defensive), then match by hashed key.
	lOrder, lByHash := firstPerKey(lt, lIdx)
	rOrder, rByHash := firstPerKey(rt, rIdx)

	var lsel, rsel []int // row per output row; -1 = missing side
	if rel.Outer {
		lsel = make([]int, 0, len(lOrder)+len(rOrder))
		rsel = make([]int, 0, len(lOrder)+len(rOrder))
		for _, li := range lOrder {
			lsel = append(lsel, li)
			rsel = append(rsel, lookupKey(rByHash, rt, rIdx, lt, lIdx, li))
		}
		// Keys only on the right.
		for _, ri := range rOrder {
			if lookupKey(lByHash, lt, lIdx, rt, rIdx, ri) < 0 {
				lsel = append(lsel, -1)
				rsel = append(rsel, ri)
			}
		}
	} else {
		lsel = make([]int, 0, len(lOrder))
		rsel = make([]int, 0, len(lOrder))
		for _, li := range lOrder {
			if ri := lookupKey(rByHash, rt, rIdx, lt, lIdx, li); ri >= 0 {
				lsel = append(lsel, li)
				rsel = append(rsel, ri)
			}
		}
	}

	nout := len(lsel)
	b := table.NewBuilder(js.schema, nout)
	// Key columns: the left cell, or the right cell for right-only keys.
	for k := range rel.On {
		lk, rk := lIdx[k], rIdx[k]
		fillJoinCol(b, k, cols[k].Type, nout, func(i int) (*table.Table, int, int) {
			if lsel[i] >= 0 {
				return lt, lk, lsel[i]
			}
			return rt, rk, rsel[i]
		})
	}
	// Picked columns: own side's cell, or the type default when the
	// outer join's other side is missing.
	for pi, p := range js.picks {
		jout := len(rel.On) + pi
		side, col := p.side, p.col
		fillJoinCol(b, jout, cols[jout].Type, nout, func(i int) (*table.Table, int, int) {
			if side == 0 {
				if lsel[i] >= 0 {
					return lt, col, lsel[i]
				}
			} else if rsel[i] >= 0 {
				return rt, col, rsel[i]
			}
			return nil, 0, 0
		})
	}
	return b.Build(), oc, nil
}

// fillJoinCol writes one join output column. src yields the source
// cell of each output row ((nil, 0, 0) for the missing side of an
// outer join, which takes the type default: 0 / ""). A source cell of
// the other type coerces — via the parse-once view into a NUMBER
// column, via formatting into a STRING column.
func fillJoinCol(b *table.Builder, jout int, typ table.DType, nout int, src func(i int) (*table.Table, int, int)) {
	if typ == table.DNumber {
		out := make([]float64, nout)
		for i := 0; i < nout; i++ {
			if t, c, r := src(i); t != nil {
				out[i] = t.Nums(c)[r]
			}
		}
		b.SetNums(jout, out)
		return
	}
	strs := make([]string, nout)
	nums := make([]float64, nout)
	valid := make([]bool, nout)
	for i := 0; i < nout; i++ {
		t, c, r := src(i)
		switch {
		case t == nil:
			// "" default: zero values, unparseable.
		case t.Schema.Cols[c].Type == table.DString:
			strs[i] = t.Strs(c)[r]
			nums[i] = t.Nums(c)[r]
			valid[i] = t.Valid(c)[r]
		default:
			f := t.Nums(c)[r]
			strs[i] = strconv.FormatFloat(f, 'g', -1, 64)
			nums[i] = f
			valid[i] = true
		}
	}
	b.SetStrsView(jout, strs, nums, valid)
}

func execUnion(rel *query.UnionExpr, env Env) (*table.Table, Constraints, error) {
	lt, lc, err := execRel(rel.Left, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	rt, rc, err := execRel(rel.Right, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	remap, oc, err := unionCons(lt.Schema, rt.Schema, lc, rc)
	if err != nil {
		return nil, Constraints{}, err
	}
	nl, nr := lt.Len(), rt.Len()
	b := table.NewBuilder(lt.Schema, nl+nr)
	for i, c := range lt.Schema.Cols {
		j := remap[i]
		if c.Type == table.DNumber {
			out := make([]float64, nl+nr)
			copy(out, lt.Nums(i))
			// The right column's numeric view IS its NUMBER coercion,
			// whatever its declared type.
			copy(out[nl:], rt.Nums(j))
			b.SetNums(i, out)
			continue
		}
		strs := make([]string, nl+nr)
		nums := make([]float64, nl+nr)
		valid := make([]bool, nl+nr)
		copy(strs, lt.Strs(i))
		copy(nums, lt.Nums(i))
		copy(valid, lt.Valid(i))
		if rt.Schema.Cols[j].Type == table.DString {
			copy(strs[nl:], rt.Strs(j))
			copy(nums[nl:], rt.Nums(j))
			copy(valid[nl:], rt.Valid(j))
		} else {
			rn := rt.Nums(j)
			for k, f := range rn {
				strs[nl+k] = strconv.FormatFloat(f, 'g', -1, 64)
				nums[nl+k] = f
				valid[nl+k] = true
			}
		}
		b.SetStrsView(i, strs, nums, valid)
	}
	return b.Build(), oc, nil
}
