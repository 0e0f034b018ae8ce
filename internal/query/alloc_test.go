package query

import (
	"runtime"
	"testing"
)

// benchShapedProgram is the service benchmark's query shape: one
// camera, a 10-minute window, a simple executable and a COUNT.
const benchShapedProgram = `SPLIT cam07 BEGIN 3-15-2021/9:40am END 3-15-2021/9:50am BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING simobj TIMEOUT 5sec PRODUCING 4 ROWS WITH SCHEMA (id:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.05;`

// TestParseAllocs pins what one parse of the benchmark-shaped program
// allocates. The lexer sizes its token slice from the source length
// once, instead of doubling it from nil, and slices punctuation and
// durations out of the source; before that a parse took 36 allocations
// and 8,480 bytes (go1.24, linux/amd64), and the bound is half of those
// bytes.
func TestParseAllocs(t *testing.T) {
	parse := func() {
		if _, err := Parse(benchShapedProgram); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, parse)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Parse: %.0f allocs, %.0f bytes per parse", allocs, bytes)
	if bytes > 8480/2 {
		t.Errorf("Parse allocates %.0f bytes, want at most %d", bytes, 8480/2)
	}
}
