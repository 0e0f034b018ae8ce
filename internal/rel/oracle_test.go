package rel

// This file preserves the pre-columnar, row-at-a-time implementation of
// the relational operators verbatim as a reference oracle. The
// differential property test (differential_test.go) executes every
// operator through both this oracle and the production columnar path
// over randomized tables and asserts identical rows, constraints and
// releases. The row-major aggregation benchmark also runs against it.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"privid/internal/query"
	"privid/internal/table"
)

// oracleTable is the historical row-major table representation.
type oracleTable struct {
	Schema table.Schema
	Rows   []table.Row
}

func newOracleTable(s table.Schema) *oracleTable { return &oracleTable{Schema: s} }

// evalExpr evaluates a scalar expression against one row. Booleans are
// represented as NUMBER 1/0. (Historical evaluator; production is the
// columnar evalVec.)
func evalExpr(e query.Expr, schema table.Schema, row table.Row) (table.Value, error) {
	switch ex := e.(type) {
	case *query.ColRef:
		i := schema.Index(ex.Name)
		if i < 0 {
			return table.Value{}, fmt.Errorf("unknown column %q", ex.Name)
		}
		return row[i], nil
	case *query.NumLit:
		return table.N(ex.V), nil
	case *query.StrLit:
		return table.S(ex.V), nil
	case *query.BinExpr:
		return evalBin(ex, schema, row)
	case *query.CallExpr:
		return evalCall(ex, schema, row)
	default:
		return table.Value{}, fmt.Errorf("unsupported expression %T", e)
	}
}

func evalBin(ex *query.BinExpr, schema table.Schema, row table.Row) (table.Value, error) {
	l, err := evalExpr(ex.L, schema, row)
	if err != nil {
		return table.Value{}, err
	}
	r, err := evalExpr(ex.R, schema, row)
	if err != nil {
		return table.Value{}, err
	}
	b := func(v bool) table.Value {
		if v {
			return table.N(1)
		}
		return table.N(0)
	}
	switch ex.Op {
	case "+":
		return table.N(l.Num() + r.Num()), nil
	case "-":
		return table.N(l.Num() - r.Num()), nil
	case "*":
		return table.N(l.Num() * r.Num()), nil
	case "/":
		d := r.Num()
		if d == 0 {
			return table.N(0), nil
		}
		return table.N(l.Num() / d), nil
	case "=":
		if l.Type() == table.DString || r.Type() == table.DString {
			return b(l.Str() == r.Str()), nil
		}
		return b(l.Num() == r.Num()), nil
	case "!=":
		if l.Type() == table.DString || r.Type() == table.DString {
			return b(l.Str() != r.Str()), nil
		}
		return b(l.Num() != r.Num()), nil
	case "<":
		return b(l.Num() < r.Num()), nil
	case "<=":
		return b(l.Num() <= r.Num()), nil
	case ">":
		return b(l.Num() > r.Num()), nil
	case ">=":
		return b(l.Num() >= r.Num()), nil
	case "AND":
		return b(l.Num() != 0 && r.Num() != 0), nil
	case "OR":
		return b(l.Num() != 0 || r.Num() != 0), nil
	default:
		return table.Value{}, fmt.Errorf("unknown operator %q", ex.Op)
	}
}

func evalCall(ex *query.CallExpr, schema table.Schema, row table.Row) (table.Value, error) {
	switch ex.Name {
	case "range":
		v, err := evalExpr(ex.Args[0], schema, row)
		if err != nil {
			return table.Value{}, err
		}
		lo := ex.Args[1].(*query.NumLit).V
		hi := ex.Args[2].(*query.NumLit).V
		x := v.Num()
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		return table.N(x), nil
	case "hour":
		v, err := evalExpr(ex.Args[0], schema, row)
		if err != nil {
			return table.Value{}, err
		}
		sec := int64(v.Num())
		return table.N(float64((sec / 3600) % 24)), nil
	case "day":
		v, err := evalExpr(ex.Args[0], schema, row)
		if err != nil {
			return table.Value{}, err
		}
		sec := int64(v.Num())
		return table.N(float64(sec / 86400)), nil
	case "bin":
		v, err := evalExpr(ex.Args[0], schema, row)
		if err != nil {
			return table.Value{}, err
		}
		w := ex.Args[1].(*query.NumLit).V
		if w <= 0 {
			return table.Value{}, fmt.Errorf("bin width must be positive")
		}
		return table.N(math.Floor(v.Num()/w) * w), nil
	default:
		return table.Value{}, fmt.Errorf("unknown function %q", ex.Name)
	}
}

func oracleExecRel(r query.RelExpr, env Env) (*oracleTable, Constraints, error) {
	switch rel := r.(type) {
	case *query.TableRef:
		t, cons, err := execTableRef(rel, env)
		if err != nil {
			return nil, Constraints{}, err
		}
		return &oracleTable{Schema: t.Schema, Rows: t.Rows()}, cons, nil
	case *query.SelectExpr:
		return oracleExecSelect(rel, env)
	case *query.GroupExpr:
		return oracleExecGroup(rel, env)
	case *query.JoinExpr:
		return oracleExecJoin(rel, env)
	case *query.UnionExpr:
		return oracleExecUnion(rel, env)
	default:
		return nil, Constraints{}, fmt.Errorf("rel: unsupported expression %T", r)
	}
}

func oracleExecSelect(rel *query.SelectExpr, env Env) (*oracleTable, Constraints, error) {
	in, cons, err := oracleExecRel(rel.From, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	rows := in.Rows
	if rel.Where != nil {
		var kept []table.Row
		for _, row := range rows {
			v, err := evalExpr(rel.Where, in.Schema, row)
			if err != nil {
				return nil, Constraints{}, err
			}
			if v.Num() != 0 {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	if rel.Limit > 0 && len(rows) > rel.Limit {
		rows = rows[:rel.Limit]
	}
	out := cons.clone()
	if rel.Limit > 0 {
		out.Size = math.Min(out.Size, float64(rel.Limit))
	}
	if rel.Star {
		t := newOracleTable(in.Schema)
		t.Rows = rows
		return t, out, nil
	}
	var cols []table.Column
	names := make([]string, len(rel.Items))
	for i, it := range rel.Items {
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr, i)
		}
		names[i] = name
		cols = append(cols, table.Column{Name: name, Type: exprType(it.Expr, in.Schema)})
	}
	newRanges := map[string]Range{}
	newTrusted := map[string]bool{}
	newBuckets := map[string]BucketSpec{}
	for i, it := range rel.Items {
		if rg, ok := exprRange(it.Expr, cons.Ranges); ok {
			newRanges[names[i]] = rg
		}
		if exprTrusted(it.Expr, cons.Trusted) {
			newTrusted[names[i]] = true
		}
		if b, ok := exprBucket(it.Expr, cons.Buckets); ok {
			newBuckets[names[i]] = b
		}
	}
	newLiterals := map[string]string{}
	newKeyDeltas := map[string]map[string]float64{}
	newKeyCams := map[string]map[string][]string{}
	for i, it := range rel.Items {
		switch ex := it.Expr.(type) {
		case *query.StrLit:
			newLiterals[names[i]] = ex.V
		case *query.ColRef:
			if v, ok := cons.LiteralCols[ex.Name]; ok {
				newLiterals[names[i]] = v
			}
			if kd, ok := cons.KeyDeltas[ex.Name]; ok {
				newKeyDeltas[names[i]] = kd
			}
			if kc, ok := cons.KeyCams[ex.Name]; ok {
				newKeyCams[names[i]] = kc
			}
		}
	}
	out.Ranges = newRanges
	out.Trusted = newTrusted
	out.Buckets = newBuckets
	out.LiteralCols = newLiterals
	out.KeyDeltas = newKeyDeltas
	out.KeyCams = newKeyCams
	out.DedupKeys = nil

	t := &oracleTable{Schema: table.Schema{Cols: cols}}
	for _, row := range rows {
		nr := make(table.Row, len(rel.Items))
		for i, it := range rel.Items {
			v, err := evalExpr(it.Expr, in.Schema, row)
			if err != nil {
				return nil, Constraints{}, err
			}
			nr[i] = v.Coerce(cols[i].Type)
		}
		t.Rows = append(t.Rows, nr)
	}
	return t, out, nil
}

func oracleExecGroup(rel *query.GroupExpr, env Env) (*oracleTable, Constraints, error) {
	in, cons, err := oracleExecRel(rel.From, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	idx := make([]int, len(rel.Keys))
	for i, k := range rel.Keys {
		idx[i] = in.Schema.Index(k)
		if idx[i] < 0 {
			return nil, Constraints{}, fmt.Errorf("rel: GROUP BY unknown column %q", k)
		}
	}
	var allow map[string]bool
	if len(rel.WithKeys) > 0 {
		if len(rel.Keys) != 1 {
			return nil, Constraints{}, fmt.Errorf("rel: WITH KEYS requires a single group column")
		}
		allow = make(map[string]bool, len(rel.WithKeys))
		for _, k := range rel.WithKeys {
			allow[k.Key()] = true
		}
	}
	seen := map[string]bool{}
	out := newOracleTable(in.Schema)
	for _, row := range in.Rows {
		key := ""
		for _, j := range idx {
			key += row[j].Key() + "\x00"
		}
		if allow != nil && !allow[row[idx[0]].Key()] {
			continue
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out.Rows = append(out.Rows, row)
	}
	oc := cons.clone()
	if len(rel.WithKeys) > 0 {
		oc.Size = math.Min(oc.Size, float64(len(rel.WithKeys)))
	}
	oc.DedupKeys = append([]string(nil), rel.Keys...)
	return out, oc, nil
}

func oracleExecJoin(rel *query.JoinExpr, env Env) (*oracleTable, Constraints, error) {
	lt, lc, err := oracleExecRel(rel.Left, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	rt, rc, err := oracleExecRel(rel.Right, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	if !keysMatch(lc.DedupKeys, rel.On) || !keysMatch(rc.DedupKeys, rel.On) {
		return nil, Constraints{}, fmt.Errorf("rel: JOIN inputs must be GROUP BY'd on the join key(s) %v", rel.On)
	}
	lIdx := make([]int, len(rel.On))
	rIdx := make([]int, len(rel.On))
	for i, k := range rel.On {
		lIdx[i] = lt.Schema.Index(k)
		rIdx[i] = rt.Schema.Index(k)
		if lIdx[i] < 0 || rIdx[i] < 0 {
			return nil, Constraints{}, fmt.Errorf("rel: JOIN column %q missing", k)
		}
	}
	onSet := make(map[string]bool, len(rel.On))
	for _, k := range rel.On {
		onSet[k] = true
	}
	var cols []table.Column
	for i, k := range rel.On {
		cols = append(cols, table.Column{Name: k, Type: lt.Schema.Cols[lIdx[i]].Type})
	}
	type pick struct {
		side int
		col  int
	}
	var picks []pick
	used := map[string]bool{}
	for _, k := range rel.On {
		used[k] = true
	}
	for i, c := range lt.Schema.Cols {
		if onSet[c.Name] {
			continue
		}
		name := c.Name
		for used[name] {
			name += "_l"
		}
		used[name] = true
		cols = append(cols, table.Column{Name: name, Type: c.Type})
		picks = append(picks, pick{0, i})
	}
	for i, c := range rt.Schema.Cols {
		if onSet[c.Name] {
			continue
		}
		name := c.Name
		for used[name] {
			name += "_r"
		}
		used[name] = true
		cols = append(cols, table.Column{Name: name, Type: c.Type})
		picks = append(picks, pick{1, i})
	}
	schema := table.Schema{Cols: cols}

	keyOf := func(row table.Row, idx []int) string {
		k := ""
		for _, j := range idx {
			k += row[j].Key() + "\x00"
		}
		return k
	}
	lByKey := map[string]table.Row{}
	var order []string
	for _, row := range lt.Rows {
		k := keyOf(row, lIdx)
		if _, ok := lByKey[k]; !ok {
			lByKey[k] = row
			order = append(order, k)
		}
	}
	rByKey := map[string]table.Row{}
	for _, row := range rt.Rows {
		k := keyOf(row, rIdx)
		if _, ok := rByKey[k]; !ok {
			rByKey[k] = row
		}
	}
	emit := func(out *oracleTable, l, r table.Row) {
		row := make(table.Row, 0, len(cols))
		src := l
		idx := lIdx
		if src == nil {
			src = r
			idx = rIdx
		}
		for i := range rel.On {
			row = append(row, src[idx[i]])
		}
		for pi, p := range picks {
			switch {
			case p.side == 0 && l != nil:
				row = append(row, l[p.col])
			case p.side == 1 && r != nil:
				row = append(row, r[p.col])
			default:
				if cols[len(rel.On)+pi].Type == table.DNumber {
					row = append(row, table.N(0))
				} else {
					row = append(row, table.S(""))
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}

	out := newOracleTable(schema)
	if rel.Outer {
		for _, k := range order {
			emit(out, lByKey[k], rByKey[k])
		}
		var rOrder []string
		seen := map[string]bool{}
		for _, row := range rt.Rows {
			k := keyOf(row, rIdx)
			if !seen[k] {
				seen[k] = true
				rOrder = append(rOrder, k)
			}
		}
		for _, k := range rOrder {
			if _, ok := lByKey[k]; !ok {
				emit(out, nil, rByKey[k])
			}
		}
	} else {
		for _, k := range order {
			if r, ok := rByKey[k]; ok {
				emit(out, lByKey[k], r)
			}
		}
	}

	oc := Constraints{
		Delta:   lc.Delta + rc.Delta,
		Ranges:  map[string]Range{},
		Trusted: map[string]bool{},
		Buckets: map[string]BucketSpec{},
		Metas:   append(append([]TableMeta(nil), lc.Metas...), rc.Metas...),
	}
	if rel.Outer {
		oc.Size = lc.Size + rc.Size
	} else {
		oc.Size = math.Min(lc.Size, rc.Size)
	}
	for _, k := range rel.On {
		lr, lok := lc.Ranges[k]
		rr, rok := rc.Ranges[k]
		if lok && rok {
			oc.Ranges[k] = Range{math.Min(lr.Lo, rr.Lo), math.Max(lr.Hi, rr.Hi)}
		}
		oc.Trusted[k] = lc.Trusted[k] && rc.Trusted[k]
		lb, lbok := lc.Buckets[k]
		if rb, rbok := rc.Buckets[k]; lbok && rbok && lb == rb {
			oc.Buckets[k] = lb
		}
	}
	ci := len(rel.On)
	for _, p := range picks {
		name := cols[ci].Name
		src := lc
		origin := lt.Schema.Cols[p.col].Name
		if p.side == 1 {
			src = rc
			origin = rt.Schema.Cols[p.col].Name
		}
		if rg, ok := src.Ranges[origin]; ok {
			if rel.Outer {
				rg = Range{math.Min(rg.Lo, 0), math.Max(rg.Hi, 0)}
			}
			oc.Ranges[name] = rg
		}
		if src.Trusted[origin] && !rel.Outer {
			oc.Trusted[name] = true
		}
		ci++
	}
	oc.DedupKeys = append([]string(nil), rel.On...)
	return out, oc, nil
}

func oracleExecUnion(rel *query.UnionExpr, env Env) (*oracleTable, Constraints, error) {
	lt, lc, err := oracleExecRel(rel.Left, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	rt, rc, err := oracleExecRel(rel.Right, env)
	if err != nil {
		return nil, Constraints{}, err
	}
	remap := make([]int, len(lt.Schema.Cols))
	for i, c := range lt.Schema.Cols {
		j := rt.Schema.Index(c.Name)
		if j < 0 {
			return nil, Constraints{}, fmt.Errorf("rel: UNION column %q missing on right side", c.Name)
		}
		remap[i] = j
	}
	if len(rt.Schema.Cols) != len(lt.Schema.Cols) {
		return nil, Constraints{}, fmt.Errorf("rel: UNION column counts differ (%d vs %d)", len(lt.Schema.Cols), len(rt.Schema.Cols))
	}
	out := newOracleTable(lt.Schema)
	out.Rows = append(out.Rows, lt.Rows...)
	for _, row := range rt.Rows {
		nr := make(table.Row, len(remap))
		for i, j := range remap {
			nr[i] = row[j].Coerce(lt.Schema.Cols[i].Type)
		}
		out.Rows = append(out.Rows, nr)
	}
	oc := Constraints{
		Delta:   lc.Delta + rc.Delta,
		Size:    lc.Size + rc.Size,
		Ranges:  map[string]Range{},
		Trusted: map[string]bool{},
		Buckets: map[string]BucketSpec{},
		Metas:   append(append([]TableMeta(nil), lc.Metas...), rc.Metas...),
	}
	oc.LiteralCols = map[string]string{}
	oc.KeyDeltas = map[string]map[string]float64{}
	oc.KeyCams = map[string]map[string][]string{}
	for _, c := range lt.Schema.Cols {
		lr, lok := lc.Ranges[c.Name]
		rr, rok := rc.Ranges[c.Name]
		if lok && rok {
			oc.Ranges[c.Name] = Range{math.Min(lr.Lo, rr.Lo), math.Max(lr.Hi, rr.Hi)}
		}
		oc.Trusted[c.Name] = lc.Trusted[c.Name] && rc.Trusted[c.Name]
		if lb, ok := lc.Buckets[c.Name]; ok {
			if rb, ok2 := rc.Buckets[c.Name]; ok2 && lb == rb {
				oc.Buckets[c.Name] = lb
			}
		}
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
	return out, oc, nil
}

// oracleAggregate computes one aggregate and its sensitivity over a row
// set (the historical implementation, with per-call Num() coercion).
func oracleAggregate(agg query.AggExpr, schema table.Schema, rows []table.Row, cons Constraints) (raw, sens float64, err error) {
	if agg.Fun == query.AggCount {
		return float64(len(rows)), cons.Delta, nil
	}
	rg, ok := exprRange(agg.Arg, cons.Ranges)
	if !ok {
		return 0, 0, fmt.Errorf("rel: %s requires a range constraint on its argument (use range(col, lo, hi))", agg.Fun)
	}
	width := rg.Width()
	var vals []float64
	for _, row := range rows {
		v, err := evalExpr(agg.Arg, schema, row)
		if err != nil {
			return 0, 0, err
		}
		x := v.Num()
		if x < rg.Lo {
			x = rg.Lo
		}
		if x > rg.Hi {
			x = rg.Hi
		}
		vals = append(vals, x)
	}
	switch agg.Fun {
	case query.AggSum:
		var s float64
		for _, v := range vals {
			s += v
		}
		return s, cons.Delta * width, nil
	case query.AggAvg:
		if math.IsInf(cons.Size, 1) {
			return 0, 0, fmt.Errorf("rel: AVG requires a bounded relation size (use LIMIT or GROUP BY ... WITH KEYS)")
		}
		var s float64
		for _, v := range vals {
			s += v
		}
		mean := 0.0
		if len(vals) > 0 {
			mean = s / float64(len(vals))
		}
		return mean, cons.Delta * width / math.Max(cons.Size, 1), nil
	case query.AggVar:
		if math.IsInf(cons.Size, 1) {
			return 0, 0, fmt.Errorf("rel: VAR requires a bounded relation size")
		}
		if len(vals) == 0 {
			return 0, square(cons.Delta*width) / math.Max(cons.Size, 1), nil
		}
		var s float64
		for _, v := range vals {
			s += v
		}
		mean := s / float64(len(vals))
		var ss float64
		for _, v := range vals {
			d := v - mean
			ss += d * d
		}
		return ss / float64(len(vals)), square(cons.Delta*width) / math.Max(cons.Size, 1), nil
	default:
		return 0, 0, fmt.Errorf("rel: unsupported aggregation %v", agg.Fun)
	}
}

// oracleExecuteSelect runs one SELECT through the historical row-major
// pipeline.
func oracleExecuteSelect(st *query.SelectStmt, env Env) ([]Release, error) {
	tbl, cons, err := oracleExecRel(st.From, env)
	if err != nil {
		return nil, err
	}
	begin, end := cons.Window()
	spans := cameraSpans(cons)

	base := Release{Fun: st.Agg.Fun, Begin: begin, End: end}

	if len(st.GroupBy) == 0 {
		if st.Agg.Fun == query.AggArgmax {
			return nil, fmt.Errorf("rel: ARGMAX requires GROUP BY")
		}
		raw, sens, err := oracleAggregate(st.Agg, tbl.Schema, tbl.Rows, cons)
		if err != nil {
			return nil, err
		}
		r := base
		r.Desc = aggDesc(st.Agg, "")
		r.Raw = raw
		r.Sensitivity = sens
		return []Release{withWindows(r, spans, nil)}, nil
	}

	if len(st.GroupBy) != 1 {
		return nil, fmt.Errorf("rel: outer GROUP BY supports a single column (got %v)", st.GroupBy)
	}
	col := st.GroupBy[0]
	ci := tbl.Schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("rel: GROUP BY unknown column %q", col)
	}

	var keys []table.Value
	var windows [][2]time.Time
	switch {
	case len(st.GroupKeys) > 0:
		keys = st.GroupKeys
		for range keys {
			windows = append(windows, [2]time.Time{begin, end})
		}
	case cons.Trusted[col]:
		spec, ok := cons.Buckets[col]
		if !ok {
			return nil, fmt.Errorf("rel: cannot enumerate buckets of trusted column %q; use hour()/day()/bin()", col)
		}
		keys, windows = enumerateBuckets(spec, begin, end)
	default:
		return nil, fmt.Errorf("rel: GROUP BY %q requires WITH KEYS (analyst-defined keys leak data)", col)
	}

	byKey := map[string][]table.Row{}
	for _, row := range tbl.Rows {
		byKey[row[ci].Key()] = append(byKey[row[ci].Key()], row)
	}

	if st.Agg.Fun == query.AggArgmax {
		r := base
		r.Desc = aggDesc(st.Agg, col)
		r.Sensitivity = cons.Delta
		if kd, ok := cons.KeyDeltas[col]; ok {
			maxD, covered := 0.0, true
			for _, k := range keys {
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
		for _, k := range keys {
			r.Scores = append(r.Scores, Score{Key: k, Raw: float64(len(byKey[k.Key()]))})
		}
		return []Release{withWindows(r, spans, nil)}, nil
	}

	kd, hasKD := cons.KeyDeltas[col]
	kc, hasKC := cons.KeyCams[col]
	var out []Release
	for i, k := range keys {
		consK := cons
		if hasKD {
			consK.Delta = kd[k.Str()]
		}
		raw, sens, err := oracleAggregate(st.Agg, tbl.Schema, byKey[k.Key()], consK)
		if err != nil {
			return nil, err
		}
		r := base
		r.Desc = aggDesc(st.Agg, "") + "[" + col + "=" + k.Str() + "]"
		r.Key = k
		r.HasKey = true
		r.Raw = raw
		r.Sensitivity = sens
		r.Begin, r.End = windows[i][0], windows[i][1]
		var only []string
		if hasKC {
			only = kc[k.Str()]
			if only == nil {
				only = []string{}
			}
		}
		out = append(out, withWindows(r, spans, only))
	}
	// Keep the oracle's release order aligned with the production paths
	// (both sort keyed releases by group key).
	sortReleases(out)
	return out, nil
}

// sortReleases orders keyed releases by group key (see releaseKeyLess).
// The sort is stable so duplicate keys keep their request order.
// Production sorts slot indices in planReleases before it builds any
// release; the oracle keeps the historical build-then-sort.
func sortReleases(rs []Release) {
	sort.SliceStable(rs, func(i, j int) bool {
		return releaseKeyLess(rs[i].Key, rs[j].Key)
	})
}
