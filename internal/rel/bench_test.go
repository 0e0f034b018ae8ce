package rel

// Benchmarks backing the aggregation acceptance criteria: the columnar
// aggregation path must allocate at least 2x less than the preserved
// row-major oracle on a 1M-row/10-group aggregation, the streaming
// fold+merge path must allocate at least 5x fewer bytes per op than
// materializing the same aggregation, and ingest-time numeric coercion
// must beat per-call Num() re-parsing.

import (
	"fmt"
	"strconv"
	"testing"

	"privid/internal/query"
	"privid/internal/table"
)

// benchRows sizes the StringNum coercion benchmarks.
const benchRows = 100_000

// aggBenchRows and aggBenchChunkRows size the aggregation benchmarks:
// one million rows over ten groups, streamed in 10k-row chunks (about
// what a busy camera's 30-second chunk produces).
const (
	aggBenchRows      = 1_000_000
	aggBenchChunkRows = 10_000
)

// aggBenchColors are the ten group keys of the aggregation workload.
var aggBenchColors = []string{
	"RED", "WHITE", "SILVER", "BLACK", "BLUE",
	"GREEN", "GRAY", "YELLOW", "ORANGE", "BROWN",
}

func benchEnv(b *testing.B) Env {
	b.Helper()
	meta := testMeta("tableA", "camA")
	base := float64(meta.Begin.Unix())
	tbl := table.New(carSchema())
	for i := 0; i < aggBenchRows; i++ {
		tbl.Append(table.Row{
			table.S("P" + strconv.Itoa(i%997)),
			table.S(aggBenchColors[i%len(aggBenchColors)]),
			table.N(float64(i%120) / 2),
			table.N(base + float64(i%100)*5),
		})
	}
	return Env{"tableA": &Instance{Metas: []TableMeta{meta}, Data: tbl}}
}

func benchStmt() *query.SelectStmt {
	keys := make([]table.Value, len(aggBenchColors))
	for i, c := range aggBenchColors {
		keys[i] = table.S(c)
	}
	return &query.SelectStmt{
		Agg: query.AggExpr{Fun: query.AggSum, Arg: &query.CallExpr{
			Name: "range",
			Args: []query.Expr{
				&query.ColRef{Name: "speed"},
				&query.NumLit{V: 0},
				&query.NumLit{V: 60},
			},
		}},
		From:      &query.TableRef{Name: "tableA"},
		GroupBy:   []string{"color"},
		GroupKeys: keys,
	}
}

// BenchmarkAggregate_RowMajor runs the grouped aggregation through the
// historical row-at-a-time implementation (oracle_test.go).
func BenchmarkAggregate_RowMajor(b *testing.B) {
	env := benchEnv(b)
	st := benchStmt()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels, err := oracleExecuteSelect(st, env)
		if err != nil || len(rels) != len(aggBenchColors) {
			b.Fatalf("rels=%d err=%v", len(rels), err)
		}
	}
}

// BenchmarkAggregate_Columnar runs the same aggregation through the
// production columnar path over the fully materialized table.
func BenchmarkAggregate_Columnar(b *testing.B) {
	env := benchEnv(b)
	st := benchStmt()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels, err := ExecuteSelect(st, env)
		if err != nil || len(rels) != len(aggBenchColors) {
			b.Fatalf("rels=%d err=%v", len(rels), err)
		}
	}
}

// BenchmarkAggregate_Streaming runs the same aggregation through the
// pushdown path: each pre-split chunk is folded into a mergeable
// partial state, states are merged, and the merge finalizes into
// releases. The chunk tables are built outside the timer — they stand
// in for the per-chunk sandbox outputs the engine already holds — so
// the measured bytes/op is the footprint of aggregation itself:
// O(groups x cameras) state instead of the materialized table's
// O(rows) vectors. The CI contract (BENCH_12.json) holds this at >=5x
// fewer bytes/op than BenchmarkAggregate_Columnar.
func BenchmarkAggregate_Streaming(b *testing.B) {
	env := benchEnv(b)
	inst := env["tableA"]
	st := benchStmt()
	plan := PlanPartial(st, "tableA", inst.Data.Schema, inst.Metas)
	if plan == nil {
		b.Fatal("grouped SUM with range constraint must be eligible for pushdown")
	}
	var chunks []*table.Table
	for i := 0; i < inst.Data.Len(); i += aggBenchChunkRows {
		end := i + aggBenchChunkRows
		if end > inst.Data.Len() {
			end = inst.Data.Len()
		}
		c := table.New(inst.Data.Schema)
		for r := i; r < end; r++ {
			c.Append(inst.Data.Row(r))
		}
		chunks = append(chunks, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := plan.NewState()
		for _, c := range chunks {
			s, err := plan.Partial(c, "camA")
			if err != nil {
				b.Fatal(err)
			}
			plan.Merge(merged, s)
		}
		if rels := plan.Finalize(merged); len(rels) != len(aggBenchColors) {
			b.Fatalf("rels=%d", len(rels))
		}
	}
}

// BenchmarkStringNum_Reparse measures summing numeric-looking strings
// via Value.Num(), which parses the string on every call (the
// historical cost when an untyped sandbox column feeds an aggregate).
func BenchmarkStringNum_Reparse(b *testing.B) {
	vals := make([]table.Value, benchRows)
	for i := range vals {
		vals[i] = table.S(fmt.Sprintf("%d.%02d", i%300, i%97))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s float64
		for _, v := range vals {
			s += v.Num()
		}
		if s == 0 {
			b.Fatal("unexpected zero sum")
		}
	}
}

// BenchmarkStringNum_IngestView sums the same strings via the
// parse-once numeric view computed at ingest by the columnar table.
func BenchmarkStringNum_IngestView(b *testing.B) {
	s := table.MustSchema(table.Column{Name: "v", Type: table.DString, Default: table.S("")})
	tbl := table.New(s)
	for i := 0; i < benchRows; i++ {
		tbl.Append(table.Row{table.S(fmt.Sprintf("%d.%02d", i%300, i%97))})
	}
	nums := tbl.Nums(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, v := range nums {
			sum += v
		}
		if sum == 0 {
			b.Fatal("unexpected zero sum")
		}
	}
}
