package sandbox

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

func testSchema() table.Schema {
	return table.MustSchema(
		table.Column{Name: "n", Type: table.DNumber, Default: table.N(-1)},
		table.Column{Name: "tag", Type: table.DString, Default: table.S("dflt")},
	)
}

// testChunk builds a chunk over an empty scene.
func testChunk(t *testing.T) *video.Chunk {
	t.Helper()
	s := &scene.Scene{Name: "t", W: 100, H: 100, FPS: 10, Frames: 1000,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	s.BuildIndex()
	src := s.Source("camA")
	sp := video.Split{Source: src, Interval: vtime.NewInterval(0, 1000), ChunkFrames: 100}
	return sp.ChunkAt(0)
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	fn := func(*video.Chunk) []table.Row { return nil }
	if err := r.Register("m1", fn); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("m1", fn); err == nil {
		t.Errorf("duplicate registration accepted")
	}
	if err := r.Register("nil", nil); err == nil {
		t.Errorf("nil func accepted")
	}
	if _, ok := r.Lookup("m1"); !ok {
		t.Errorf("Lookup failed")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Errorf("Lookup found unregistered name")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "m1" {
		t.Errorf("Names=%v", names)
	}
}

func TestRunNormal(t *testing.T) {
	e := &Executor{
		Fn: func(c *video.Chunk) []table.Row {
			return []table.Row{
				{table.N(float64(c.Ordinal)), table.S("a")},
				{table.N(2), table.S("b")},
			}
		},
		Timeout: time.Second,
		MaxRows: 10,
		Schema:  testSchema(),
	}
	tb, ok := e.RunTable(testChunk(t))
	if !ok || tb.Len() != 2 {
		t.Fatalf("%d rows, clean=%v", tb.Len(), ok)
	}
	if tb.At(0, 0).Num() != 0 || tb.At(0, 1).Str() != "a" {
		t.Errorf("row 0 = %v", tb.Row(0))
	}
}

func TestRunTruncatesMaxRows(t *testing.T) {
	e := &Executor{
		Fn: func(*video.Chunk) []table.Row {
			out := make([]table.Row, 100)
			for i := range out {
				out[i] = table.Row{table.N(float64(i)), table.S("x")}
			}
			return out
		},
		Timeout: time.Second,
		MaxRows: 7,
		Schema:  testSchema(),
	}
	if tb, _ := e.RunTable(testChunk(t)); tb.Len() != 7 {
		t.Fatalf("over-production not truncated: %d rows", tb.Len())
	}
}

func TestRunConformsSchema(t *testing.T) {
	e := &Executor{
		Fn: func(*video.Chunk) []table.Row {
			return []table.Row{
				// Wrong types, extra column, short row.
				{table.S("42"), table.N(7), table.S("extraneous")},
				{table.N(1)},
			}
		},
		Timeout: time.Second,
		MaxRows: 10,
		Schema:  testSchema(),
	}
	tb, _ := e.RunTable(testChunk(t))
	if tb.Len() != 2 {
		t.Fatalf("%d rows", tb.Len())
	}
	if v := tb.At(0, 0); v.Type() != table.DNumber || v.Num() != 42 {
		t.Errorf("coercion failed: %v", v)
	}
	if row := tb.Row(0); len(row) != 2 || row[1].Type() != table.DString || row[1].Str() != "7" {
		t.Errorf("extraneous column kept or tag not coerced: %v", row)
	}
	// Missing column filled with the default.
	if tb.At(1, 1).Str() != "dflt" {
		t.Errorf("missing column default: %v", tb.Row(1))
	}
}

func TestRunPanicYieldsDefault(t *testing.T) {
	e := &Executor{
		Fn:      func(*video.Chunk) []table.Row { panic("analyst bug") },
		Timeout: time.Second,
		MaxRows: 10,
		Schema:  testSchema(),
	}
	tb, ok := e.RunTable(testChunk(t))
	if ok || tb.Len() != 1 {
		t.Fatalf("%d rows, clean=%v; want 1 default row", tb.Len(), ok)
	}
	if tb.At(0, 0).Num() != -1 || tb.At(0, 1).Str() != "dflt" {
		t.Errorf("default row = %v", tb.Row(0))
	}
}

func TestRunTimeoutYieldsDefault(t *testing.T) {
	e := &Executor{
		Fn: func(*video.Chunk) []table.Row {
			time.Sleep(200 * time.Millisecond)
			return []table.Row{{table.N(99), table.S("late")}}
		},
		Timeout: 10 * time.Millisecond,
		MaxRows: 10,
		Schema:  testSchema(),
	}
	tb, ok := e.RunTable(testChunk(t))
	if ok || tb.Len() != 1 || tb.At(0, 0).Num() != -1 {
		t.Fatalf("timeout did not yield default: %v, clean=%v", tb, ok)
	}
}

// TestRunNoCrossChunkState demonstrates why smuggling state through a
// closure is unreliable: the engine may run chunks in any order, so
// the contract (independent instantiation per chunk) is the only
// dependable semantics. The harness additionally documents the
// prohibition; this test pins the truncation of such an attempt's
// effect to a single chunk's output budget.
func TestRunStateSmugglingStillBounded(t *testing.T) {
	counter := 0
	e := &Executor{
		Fn: func(*video.Chunk) []table.Row {
			counter++ // forbidden cross-chunk state
			out := make([]table.Row, counter*10)
			for i := range out {
				out[i] = table.Row{table.N(float64(counter)), table.S("x")}
			}
			return out
		},
		Timeout: time.Second,
		MaxRows: 5,
		Schema:  testSchema(),
	}
	c := testChunk(t)
	for i := 0; i < 10; i++ {
		tb, _ := e.RunTable(c)
		// Whatever the smuggled state does, the per-chunk contribution
		// stays bounded by MaxRows — which is what the sensitivity
		// analysis relies on.
		if tb.Len() > 5 {
			t.Fatalf("iteration %d emitted %d rows", i, tb.Len())
		}
	}
}

// TestRunCheckedTimerReuse drives the pooled channel+timer pairs through
// every way an execution can end, interleaved so each kind inherits what
// the others left behind: a clean run under a long TIMEOUT must never
// see a stale fire of an earlier, shorter arming (a spurious timeout), a
// timed-out or panicking run always yields the default row, and Done
// runs exactly once per execution however it ended.
func TestRunCheckedTimerReuse(t *testing.T) {
	var exited sync.WaitGroup // a second Done for one execution panics it
	var done atomic.Int64
	release := make(chan struct{})
	row := []table.Row{{table.N(7), table.S("ok")}}
	mk := func(timeout time.Duration, fn ProcessFunc) *Executor {
		return &Executor{Fn: fn, Timeout: timeout, MaxRows: 10, Schema: testSchema(),
			Done: func() { done.Add(1); exited.Done() }}
	}
	const short = 50 * time.Microsecond
	kinds := []struct {
		name string
		exec *Executor
		want int // 1 clean, 0 default row, -1 either
	}{
		{"clean", mk(time.Minute, func(*video.Chunk) []table.Row { return row }), 1},
		{"timeout", mk(short, func(*video.Chunk) []table.Row { <-release; return row }), 0},
		{"panic", mk(time.Minute, func(*video.Chunk) []table.Row { panic("analyst bug") }), 0},
		// Finishes about when its timer fires: either verdict is right, and
		// whichever loses the select is what a reused pair must not leak.
		{"photo finish", mk(short, func(*video.Chunk) []table.Row { time.Sleep(short); return row }), -1},
	}
	c := testChunk(t)
	const n = 10000
	for i := 0; i < n; i++ {
		k := kinds[i%len(kinds)]
		exited.Add(1)
		rows, ok := k.exec.RunChecked(c)
		if k.want >= 0 && ok != (k.want == 1) {
			t.Fatalf("execution %d (%s): clean=%v", i, k.name, ok)
		}
		if want := map[bool]float64{true: 7, false: -1}[ok]; len(rows) != 1 || rows[0][0].Num() != want {
			t.Fatalf("execution %d (%s): clean=%v with rows %v", i, k.name, ok, rows)
		}
	}
	close(release)
	exited.Wait()
	if got := done.Load(); got != n {
		t.Fatalf("Done ran %d times for %d executions", got, n)
	}
}

// RunTable (the engine's ingest path) and RunChecked (the conformed
// rows) agree cell by cell and on the clean verdict for every kind of
// hostile output: ragged rows, zero values, NaN and ±Inf, strings in a
// NUMBER column and numbers in a STRING one, output past MaxRows, no
// output, a panic and a timeout.
func TestRunTableMatchesRunChecked(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	inf := math.Inf(1)
	many := make([]table.Row, 40)
	for i := range many {
		many[i] = table.Row{table.N(float64(i)), table.S("x")}
	}
	for _, tc := range []struct {
		name string
		fn   ProcessFunc
	}{
		{"ragged", func(*video.Chunk) []table.Row {
			return []table.Row{nil, {}, {table.N(1)}, {table.N(2), table.S("b"), table.S("extra"), table.N(9)}}
		}},
		{"zero values", func(*video.Chunk) []table.Row { return []table.Row{{table.Value{}, table.Value{}}} }},
		{"non-finite", func(*video.Chunk) []table.Row {
			return []table.Row{{table.N(math.NaN()), table.N(inf)}, {table.N(-inf), table.N(math.NaN())}}
		}},
		{"strings in NUMBER", func(*video.Chunk) []table.Row {
			return []table.Row{{table.S("42"), table.S("")}, {table.S("abc"), table.S("7")}, {table.S(""), table.S("NaN")},
				{table.S("Inf"), table.S("-1e400")}, {table.S(" 3 "), table.S("0x10")}, {table.S("1e400"), table.S("nan")}}
		}},
		{"numbers in STRING", func(*video.Chunk) []table.Row {
			return []table.Row{{table.N(1), table.N(2.5)}, {table.N(3), table.N(-0.0)}, {table.N(4), table.N(1e21)}}
		}},
		{"past MaxRows", func(*video.Chunk) []table.Row { return many }},
		{"no output", func(*video.Chunk) []table.Row { return nil }},
		{"panic", func(*video.Chunk) []table.Row { panic("analyst bug") }},
		{"timeout", func(*video.Chunk) []table.Row { <-block; return many }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &Executor{Fn: tc.fn, Timeout: 20 * time.Millisecond, MaxRows: 10, Schema: testSchema()}
			c := testChunk(t)
			rows, okRows := e.RunChecked(c)
			tb, okTable := e.RunTable(c)
			if okRows != okTable || len(rows) != tb.Len() {
				t.Fatalf("RunChecked: %d rows, clean=%v; RunTable: %d rows, clean=%v", len(rows), okRows, tb.Len(), okTable)
			}
			for i, row := range rows {
				for j, want := range row {
					got := tb.At(i, j)
					same := got.Type() == want.Type() && got.Str() == want.Str() &&
						(got.Num() == want.Num() || math.IsNaN(got.Num()) && math.IsNaN(want.Num()))
					if !same {
						t.Errorf("row %d column %d: RunTable %v, RunChecked %v", i, j, got, want)
					}
				}
			}
		})
	}
}
