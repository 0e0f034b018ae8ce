package rel

import (
	"fmt"
	"math"
	"sort"
	"time"

	"privid/internal/query"
	"privid/internal/table"
)

// Score is one candidate of an ARGMAX release: a group key and its raw
// (pre-noise) score.
type Score struct {
	Key table.Value
	Raw float64
}

// Release is one data release produced by a SELECT: a single
// aggregate value (or, for ARGMAX, a set of scores from which the
// noisy-max key is chosen) together with the sensitivity the Laplace
// mechanism must cover, the time window it depends on, and the cameras
// it draws budget from.
type Release struct {
	// Desc is a human-readable description, e.g. `COUNT(plate)[color=RED]`.
	Desc string
	// Key is the group key when the SELECT used GROUP BY.
	Key    table.Value
	HasKey bool
	// Fun is the aggregation function.
	Fun query.AggFun
	// Raw is the pre-noise aggregate (unused for ARGMAX).
	Raw float64
	// Scores holds the per-key raw scores for ARGMAX.
	Scores []Score
	// Sensitivity is Δ(Q): the maximum the release can change with the
	// presence/absence of any (ρ, K)-bounded event.
	Sensitivity float64
	// Begin/End bound the wall-clock span of video the release depends
	// on (a single bucket for trusted time grouping, else the full
	// window).
	Begin, End time.Time
	// Cameras lists the cameras whose budgets the release consumes.
	Cameras []string
	// CamWindows bounds, per camera, the span of that camera's video
	// the release depends on — the interval its ledger is charged
	// over. It is each camera's own queried window clipped to
	// Begin/End; cameras whose window misses the release entirely are
	// absent (and not charged). Keys equal Cameras.
	CamWindows map[string][2]time.Time
	// Epsilon is the budget this release will consume; the engine
	// fills it from CONSUMING or its default.
	Epsilon float64
}

// ExecuteSelect runs one SELECT statement over the environment and
// returns its data releases with sensitivities attached. The release
// skeleton comes from the planner; this function only fills in values.
func ExecuteSelect(st *query.SelectStmt, env Env) ([]Release, error) {
	tbl, cons, err := execRel(st.From, env)
	if err != nil {
		return nil, err
	}
	rp, err := planReleases(st, tbl.Schema, cons)
	if err != nil {
		return nil, err
	}
	out := rp.releases // this call's own plan: filled in place

	// The aggregate argument is evaluated columnar, once, shared across
	// every group — and lazily, so a statement whose groups are all
	// empty never evaluates it.
	var argv vec
	argvDone := false
	evalArg := func() (vec, error) {
		if argvDone {
			return argv, nil
		}
		argvDone = true
		var err error
		argv, err = evalVec(st.Agg.Arg, tbl)
		return argv, err
	}

	if rp.ci < 0 {
		out[0].Raw, err = aggregateSel(st.Agg, tbl, nil, true, evalArg, rp.rg)
		return out, err
	}

	// Partition rows across the requested keys by hashed cell key (a
	// row matching several identical requested keys lands in each),
	// scanning the column once instead of building per-row key strings.
	ci, keys, slots := rp.ci, rp.keys, rp.slots
	groupSel := make([][]int, len(keys))
	for i := 0; i < tbl.Len(); i++ {
		h := tbl.HashCell(table.HashSeed, i, ci)
		for _, si := range slots[h] {
			if tbl.At(i, ci).KeyEqual(keys[si]) {
				groupSel[si] = append(groupSel[si], i)
			}
		}
	}

	if st.Agg.Fun == query.AggArgmax {
		for si, k := range keys {
			out[0].Scores = append(out[0].Scores, Score{Key: k, Raw: float64(len(groupSel[si]))})
		}
		return out, nil
	}
	for i := range out {
		out[i].Raw, err = aggregateSel(st.Agg, tbl, groupSel[rp.slotOf[i]], false, evalArg, rp.rg)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cameraSpans returns each camera's full queried wall-clock span (the
// min Begin / max End over its contributing tables).
func cameraSpans(cons Constraints) map[string][2]time.Time {
	out := map[string][2]time.Time{}
	for _, m := range cons.Metas {
		sp, ok := out[m.Camera]
		if !ok {
			out[m.Camera] = [2]time.Time{m.Begin, m.End}
			continue
		}
		if m.Begin.Before(sp[0]) {
			sp[0] = m.Begin
		}
		if m.End.After(sp[1]) {
			sp[1] = m.End
		}
		out[m.Camera] = sp
	}
	return out
}

// withWindows attaches per-camera charge windows to a release: each
// camera's span clipped to the release's own window, restricted to the
// `only` set when non-nil. Cameras left with an empty window are
// dropped — the release provably does not depend on their video.
func withWindows(r Release, spans map[string][2]time.Time, only []string) Release {
	var allow map[string]bool
	if only != nil {
		allow = make(map[string]bool, len(only))
		for _, c := range only {
			allow[c] = true
		}
	}
	r.CamWindows = map[string][2]time.Time{}
	r.Cameras = nil
	for cam, sp := range spans {
		if allow != nil && !allow[cam] {
			continue
		}
		b, e := sp[0], sp[1]
		if r.Begin.After(b) {
			b = r.Begin
		}
		if r.End.Before(e) {
			e = r.End
		}
		if !e.After(b) {
			continue
		}
		r.CamWindows[cam] = [2]time.Time{b, e}
		r.Cameras = append(r.Cameras, cam)
	}
	sort.Strings(r.Cameras)
	return r
}

// aggregateSel computes one aggregate over the rows selected by sel (or
// the whole table when all is true), accumulating straight off the
// argument's column vector clamped to rg, the range the planner read off
// the argument. evalArg memoizes the columnar evaluation of the argument
// across groups and is only invoked when the row set is non-empty.
func aggregateSel(agg query.AggExpr, tbl *table.Table, sel []int, all bool, evalArg func() (vec, error), rg Range) (float64, error) {
	count := len(sel)
	if all {
		count = tbl.Len()
	}
	if agg.Fun == query.AggCount {
		return float64(count), nil
	}
	var av vec
	if count > 0 {
		var err error
		av, err = evalArg()
		if err != nil {
			return 0, err
		}
	}
	// Defensive truncation: the declared range is a privacy constraint,
	// so it is enforced regardless of what the untrusted rows contain.
	clamped := func(i int) float64 {
		x := av.numAt(i)
		if x < rg.Lo {
			x = rg.Lo
		}
		if x > rg.Hi {
			x = rg.Hi
		}
		return x
	}
	at := func(k int) float64 {
		if all {
			return clamped(k)
		}
		return clamped(sel[k])
	}
	switch agg.Fun {
	case query.AggSum:
		var s float64
		for k := 0; k < count; k++ {
			s += at(k)
		}
		return s, nil
	case query.AggAvg:
		var s float64
		for k := 0; k < count; k++ {
			s += at(k)
		}
		mean := 0.0
		if count > 0 {
			mean = s / float64(count)
		}
		return mean, nil
	case query.AggVar:
		if count == 0 {
			return 0, nil
		}
		var s float64
		for k := 0; k < count; k++ {
			s += at(k)
		}
		mean := s / float64(count)
		var ss float64
		for k := 0; k < count; k++ {
			d := at(k) - mean
			ss += d * d
		}
		return ss / float64(count), nil
	default:
		return 0, fmt.Errorf("rel: unsupported aggregation %v", agg.Fun)
	}
}

// enumerateBuckets lists every bucket of a trusted time column within
// the window, with each bucket's own wall-clock span (used for
// fine-grained budget accounting of standing queries).
func enumerateBuckets(spec BucketSpec, begin, end time.Time) ([]table.Value, [][2]time.Time) {
	var keys []table.Value
	var windows [][2]time.Time
	if spec.HourOfDay {
		// Hours of day present in the window; for windows >= 24 h all
		// 24 are present. Each hour-of-day release depends on every
		// matching hour of the window, so its span is the whole
		// window (conservative). The walk starts on begin's own hour
		// boundary (hour() is the UTC hour of the chunk start): stepping
		// from an unaligned begin would skip the final partial hour.
		hours := map[int]bool{}
		for t := begin.UTC().Truncate(time.Hour); t.Before(end); t = t.Add(time.Hour) {
			hours[t.Hour()] = true
		}
		var hs []int
		for h := range hours {
			hs = append(hs, h)
		}
		sort.Ints(hs)
		for _, h := range hs {
			keys = append(keys, table.N(float64(h)))
			windows = append(windows, [2]time.Time{begin, end})
		}
		return keys, windows
	}
	w := spec.WidthSec
	if w <= 0 {
		return nil, nil
	}
	step := time.Duration(w * float64(time.Second))
	// Buckets are aligned to the epoch, matching bin()'s floor.
	first := math.Floor(float64(begin.Unix())/w) * w
	for t := first; t < float64(end.Unix()); t += w {
		keys = append(keys, table.N(t))
		bs := time.Unix(int64(t), 0).UTC()
		be := bs.Add(step)
		if bs.Before(begin) {
			bs = begin
		}
		if be.After(end) {
			be = end
		}
		windows = append(windows, [2]time.Time{bs, be})
	}
	return keys, windows
}

// aggDesc renders a short description of the aggregation.
func aggDesc(agg query.AggExpr, argmaxCol string) string {
	if agg.Fun == query.AggArgmax {
		return "ARGMAX(" + argmaxCol + ")"
	}
	if agg.Star {
		return agg.Fun.String() + "(*)"
	}
	return agg.Fun.String() + "(" + exprString(agg.Arg) + ")"
}

// exprString renders an expression for diagnostics.
func exprString(e query.Expr) string {
	switch ex := e.(type) {
	case *query.ColRef:
		return ex.Name
	case *query.NumLit:
		return table.N(ex.V).Str()
	case *query.StrLit:
		return fmt.Sprintf("%q", ex.V)
	case *query.BinExpr:
		return exprString(ex.L) + ex.Op + exprString(ex.R)
	case *query.CallExpr:
		s := ex.Name + "("
		for i, a := range ex.Args {
			if i > 0 {
				s += ","
			}
			s += exprString(a)
		}
		return s + ")"
	default:
		return "?"
	}
}
