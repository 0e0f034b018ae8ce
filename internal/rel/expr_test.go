package rel

import (
	"math"
	"testing"

	"privid/internal/query"
	"privid/internal/table"
)

func evalOn(t *testing.T, exprSrc string, schema table.Schema, row table.Row) table.Value {
	t.Helper()
	// Parse the expression by wrapping it in a projection.
	src := `
SPLIT c BEGIN 01-01-2021/12:00am END 01-02-2021/12:00am BY TIME 5sec STRIDE 0sec INTO cs;
PROCESS cs USING e TIMEOUT 1sec PRODUCING 1 ROWS WITH SCHEMA (n:NUMBER=0, s:STRING="") INTO t;
SELECT COUNT(*) FROM (SELECT ` + exprSrc + ` AS v FROM t);`
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", exprSrc, err)
	}
	se := prog.Selects[0].From.(*query.SelectExpr)
	v, err := evalExpr(se.Items[0].Expr, schema, row)
	if err != nil {
		t.Fatalf("eval %q: %v", exprSrc, err)
	}
	return v
}

func TestExprEvaluation(t *testing.T) {
	schema := table.MustSchema(
		table.Column{Name: "n", Type: table.DNumber},
		table.Column{Name: "s", Type: table.DString},
	)
	row := table.Row{table.N(6), table.S("abc")}
	cases := []struct {
		expr string
		want float64
	}{
		{"n + 2", 8},
		{"n - 10", -4},
		{"n * n", 36},
		{"n / 2", 3},
		{"n / 0", 0}, // untrusted data: division by zero yields 0
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"-n", -6},
		{"n > 5", 1},
		{"n > 7", 0},
		{"n >= 6", 1},
		{"n < 6", 0},
		{"n <= 6", 1},
		{"n = 6", 1},
		{"n != 6", 0},
		{"n > 5 AND n < 7", 1},
		{"n > 7 OR n = 6", 1},
		{"n > 7 AND n = 6", 0},
		{"range(n, 0, 5)", 5},    // truncated above
		{"range(n, 10, 20)", 10}, // truncated below
		{"range(n, 0, 10)", 6},
		{"bin(n, 4)", 4},
		{"hour(n)", 0}, // 6 seconds into the epoch is hour 0
	}
	for _, c := range cases {
		if got := evalOn(t, c.expr, schema, row).Num(); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestExprStringComparison(t *testing.T) {
	schema := table.MustSchema(
		table.Column{Name: "n", Type: table.DNumber},
		table.Column{Name: "s", Type: table.DString},
	)
	row := table.Row{table.N(1), table.S("abc")}
	if got := evalOn(t, `s = "abc"`, schema, row).Num(); got != 1 {
		t.Errorf("string equality failed")
	}
	if got := evalOn(t, `s != "xyz"`, schema, row).Num(); got != 1 {
		t.Errorf("string inequality failed")
	}
}

func TestExprRangePropagation(t *testing.T) {
	ranges := map[string]Range{"a": {0, 10}, "b": {-5, 5}}
	mk := func(src string) query.Expr {
		prog, err := query.Parse(`
SPLIT c BEGIN 01-01-2021/12:00am END 01-02-2021/12:00am BY TIME 5sec STRIDE 0sec INTO cs;
PROCESS cs USING e TIMEOUT 1sec PRODUCING 1 ROWS WITH SCHEMA (a:NUMBER=0, b:NUMBER=0) INTO t;
SELECT COUNT(*) FROM (SELECT ` + src + ` AS v FROM t);`)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return prog.Selects[0].From.(*query.SelectExpr).Items[0].Expr
	}
	cases := []struct {
		expr   string
		lo, hi float64
		ok     bool
	}{
		{"a + b", -5, 15, true},
		{"a - b", -5, 15, true},
		{"a * b", -50, 50, true},
		{"a / b", 0, 0, false}, // division unbinds
		{"a + 100", 100, 110, true},
		{"a > b", 0, 1, true},
		{"range(a, 2, 3) * 2", 4, 6, true},
		{"hour(a)", 0, 23, true},
	}
	for _, c := range cases {
		rg, ok := exprRange(mk(c.expr), ranges)
		if ok != c.ok {
			t.Errorf("%s: ok=%v, want %v", c.expr, ok, c.ok)
			continue
		}
		if ok && (math.Abs(rg.Lo-c.lo) > 1e-9 || math.Abs(rg.Hi-c.hi) > 1e-9) {
			t.Errorf("%s: range [%v,%v], want [%v,%v]", c.expr, rg.Lo, rg.Hi, c.lo, c.hi)
		}
	}
}

func TestRangeWidth(t *testing.T) {
	cases := []struct {
		r    Range
		want float64
	}{
		{Range{0, 10}, 10},
		{Range{30, 60}, 60},   // |hi| dominates: a row appearing contributes up to 60
		{Range{-20, 5}, 25},   // width dominates
		{Range{-50, -40}, 50}, // |lo| dominates
		{Range{5, 5}, 5},
	}
	for _, c := range cases {
		if got := c.r.width(); got != c.want {
			t.Errorf("Width(%v)=%v, want %v", c.r, got, c.want)
		}
	}
}
