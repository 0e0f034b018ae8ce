package rel

// Tests that pin the planner's structure and its one behavioural
// promise: what is decided about a statement never depends on rows.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privid/internal/query"
	"privid/internal/table"
)

// TestPlannerOwnsConstraintsAndSensitivity enforces the file-level rule
// on the AST of the package's non-test sources: plan.go never names the
// row container, and it is the only file that builds a non-empty
// Constraints literal or writes a Sensitivity, Delta or Size field
// (meta.go's clone copies a whole value and is exempt).
func TestPlannerOwnsConstraintsAndSensitivity(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sawPlan := false
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		isPlan := name == "plan.go"
		sawPlan = sawPlan || isPlan
		guarded := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			return ok && (sel.Sel.Name == "Sensitivity" || sel.Sel.Name == "Delta" || sel.Sel.Name == "Size")
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && isPlan && pkg.Name == "table" && x.Sel.Name == "Table" {
					t.Errorf("%s: plan.go names table.Table; the planner must stay table-blind", fset.Position(x.Pos()))
				}
			case *ast.CompositeLit:
				if id, ok := x.Type.(*ast.Ident); ok && id.Name == "Constraints" && len(x.Elts) > 0 && !isPlan {
					t.Errorf("%s: Constraints built outside plan.go", fset.Position(x.Pos()))
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if guarded(lhs) && !isPlan {
						t.Errorf("%s: %s assigned outside plan.go", fset.Position(lhs.Pos()), lhs.(*ast.SelectorExpr).Sel.Name)
					}
				}
			case *ast.IncDecStmt:
				if guarded(x.X) && !isPlan {
					t.Errorf("%s: %s modified outside plan.go", fset.Position(x.Pos()), x.X.(*ast.SelectorExpr).Sel.Name)
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok && id.Name == "Sensitivity" && !isPlan {
					t.Errorf("%s: Sensitivity set in a literal outside plan.go", fset.Position(x.Pos()))
				}
			}
			return true
		})
	}
	if !sawPlan {
		t.Fatal("plan.go not found: the test is not looking at the package sources")
	}
}

// TestPartialPlanIDGolden pins the plan identity of three shapes —
// ungrouped COUNT, binned COUNT, keyed SUM — to the bytes recorded before
// the planner existed. The ID keys the partial-state cache tier (and its
// on-disk PPS1 payloads): a refactor that moves a byte orphans every
// cached state.
func TestPartialPlanIDGolden(t *testing.T) {
	const schema = `pps1|"plate":0:"s:";"color":0:"s:";"speed":1:"n:0";"chunk":1:"n:0";|`
	golden := []struct{ sel, id string }{
		{`SELECT COUNT(*) FROM tableA;`,
			schema + `T("tableA")|agg:0,star:true,arg:-|gb:""|keys:`},
		{`SELECT COUNT(*) FROM (SELECT bin(chunk, 100) AS b FROM tableA) GROUP BY b;`,
			schema + `S("b"=f("bin",c("chunk"),n(4059000000000000));w=-;f=T("tableA"))|agg:0,star:true,arg:-|gb:"b"|keys:"n:1.615788e+09";"n:1.6157881e+09";"n:1.6157882e+09";"n:1.6157883e+09";"n:1.6157884e+09";`},
		{`SELECT color, SUM(range(speed, 0, 60)) FROM tableA GROUP BY color WITH KEYS ["WHITE","RED"];`,
			schema + `T("tableA")|agg:1,star:false,arg:f("range",c("speed"),n(0),n(404e000000000000))|gb:"color"|keys:"s:WHITE";"s:RED";|rg:0,404e000000000000`},
	}
	inst := carEnv(t)["tableA"]
	for _, g := range golden {
		plan := PlanPartial(parseSelect(t, g.sel), "tableA", inst.Data.Schema, inst.Metas)
		if plan == nil {
			t.Fatalf("%s: declined", g.sel)
		}
		if plan.ID() != g.id {
			t.Errorf("%s: plan ID moved\n got %s\nwant %s", g.sel, plan.ID(), g.id)
		}
	}
}

// TestHourBucketsOfUnalignedWindow: hour() releases must cover every
// hour of day the window touches, including the partial hour an
// unaligned window ends in (the oracle shares enumerateBuckets, so the
// differential cannot see this). Stepping from 06:30 by whole hours used
// to produce only hour 6 for 06:30–07:10, and every row stamped after
// 07:00 silently matched no release.
func TestHourBucketsOfUnalignedWindow(t *testing.T) {
	day := time.Date(2021, 3, 15, 0, 0, 0, 0, time.UTC)
	at := func(h, m int) time.Time { return day.Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute) }
	for _, tc := range []struct {
		begin, end time.Time
		want       []float64
	}{
		{at(6, 30), at(7, 10), []float64{6, 7}},
		{at(6, 0), at(7, 0), []float64{6}},
		{at(23, 40), at(24+1, 5), []float64{0, 1, 23}}, // across midnight
		{at(22, 15), at(24+22, 15), allHours()},
	} {
		keys, windows := enumerateBuckets(BucketSpec{HourOfDay: true}, tc.begin, tc.end)
		if len(keys) != len(tc.want) || len(windows) != len(keys) {
			t.Fatalf("%v–%v: keys %v, want %v", tc.begin, tc.end, keys, tc.want)
		}
		for i, k := range keys {
			if k.Num() != tc.want[i] || !windows[i][0].Equal(tc.begin) || !windows[i][1].Equal(tc.end) {
				t.Errorf("%v–%v: bucket %d = %v over %v, want hour %v over the whole window", tc.begin, tc.end, i, k.Num(), windows[i], tc.want[i])
			}
		}
	}

	// End to end: a row stamped in the trailing partial hour is counted.
	meta := testMeta("tableA", "camA")
	meta.Begin, meta.End = at(6, 30), at(7, 10)
	tbl := table.New(carSchema())
	tbl.Append(table.Row{table.S("AAA"), table.S("RED"), table.N(40), table.N(float64(at(7, 5).Unix()))})
	st := parseSelect(t, `SELECT COUNT(*) FROM (SELECT hour(chunk) AS h FROM tableA) GROUP BY h;`)
	rels, err := ExecuteSelect(st, Env{"tableA": &Instance{Metas: []TableMeta{meta}, Data: tbl}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 || rels[0].Key.Num() != 6 || rels[0].Raw != 0 || rels[1].Key.Num() != 7 || rels[1].Raw != 1 {
		t.Fatalf("releases %+v, want hour 6 = 0 and hour 7 = 1", rels)
	}
}

func allHours() []float64 {
	hs := make([]float64, 24)
	for i := range hs {
		hs[i] = float64(i)
	}
	return hs
}

// emptied returns env with every table's rows removed: same schemas,
// same trusted metadata.
func emptied(env Env) Env {
	out := Env{}
	for name, inst := range env {
		out[name] = &Instance{Metas: inst.Metas, Data: table.New(inst.Data.Schema)}
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestRejectionIsStatic is the property that closes the rejection side
// channel: over everything the differential generators produce (seed 740
// of the operator generator is the first statement that used to
// diverge), a relational expression or a full SELECT is rejected over a
// populated environment exactly when — and with exactly the text with
// which — it is rejected over the same environment with every table
// emptied.
func TestRejectionIsStatic(t *testing.T) {
	rejected := 0
	for seed := int64(0); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := diffEnv(rng)
		rel, _ := diffRel(rng, rng.Intn(4)+1)
		_, _, full := execRel(rel, env)
		_, _, none := execRel(rel, emptied(env))
		if errText(full) != errText(none) {
			t.Fatalf("operator seed %d: populated %q, emptied %q", seed, errText(full), errText(none))
		}

		rng = rand.New(rand.NewSource(seed ^ 0x5eed))
		env = diffEnv(rng)
		from, cols := diffSchemaPreserving(rng, rng.Intn(3))
		st := diffSelectStmt(rng, from, cols)
		_, full = ExecuteSelect(st, env)
		_, none = ExecuteSelect(st, emptied(env))
		if errText(full) != errText(none) {
			t.Fatalf("select seed %d: populated %q, emptied %q", seed, errText(full), errText(none))
		}
		if full != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no generated statement was rejected; the generators drifted")
	}
}

// skeleton renders everything about a statement's releases that must be
// data-independent: count, order, descriptions, keys, sensitivities
// (bit-exact), windows, charged cameras and their charge windows, and
// the ARGMAX candidate keys. Raw values and scores are left out.
func skeleton(rels []Release) string {
	var b strings.Builder
	for _, r := range rels {
		fmt.Fprintf(&b, "%s|%v|%t|%s|%x|%d-%d|%v|", r.Desc, r.Fun, r.HasKey, r.Key.Key(),
			r.Sensitivity, r.Begin.UnixNano(), r.End.UnixNano(), r.Cameras)
		for _, cam := range r.Cameras {
			w := r.CamWindows[cam]
			fmt.Fprintf(&b, "%s:%d-%d,", cam, w[0].UnixNano(), w[1].UnixNano())
		}
		fmt.Fprintf(&b, "|%d cam windows|scores:", len(r.CamWindows))
		for _, s := range r.Scores {
			b.WriteString(s.Key.Key() + ",")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// pushdownSkeleton is the skeleton of st's releases on the pushdown
// path, folding each table of env as one chunk; ok is false when the
// statement is not eligible.
func pushdownSkeleton(t *testing.T, st *query.SelectStmt, env Env) (string, bool) {
	t.Helper()
	refs := ReferencedTables(st.From)
	if len(refs) != 1 {
		return "", false
	}
	inst := env[refs[0]]
	plan := PlanPartial(st, refs[0], inst.Data.Schema, inst.Metas)
	if plan == nil {
		return "", false
	}
	s, err := plan.Partial(inst.Data, inst.Metas[0].Camera)
	if err != nil {
		t.Fatalf("fold: %v", err)
	}
	return skeleton(plan.Finalize(s)), true
}
