package harness_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"privid/internal/harness"
	"privid/internal/query"
)

// TestExecuteLeavesProgramUnchanged runs every harness fixture program
// twice through its Prepared on the harness's engine — a plan miss,
// then a hit — and requires the program afterwards to equal a fresh
// parse: the engine never writes a program, so its program cache may
// share one between jobs.
func TestExecuteLeavesProgramUnchanged(t *testing.T) {
	h := harness.Start(t, harness.Config{Cameras: 3, Epsilon: 100})
	for _, src := range []string{
		harness.CountQuery(0, 2, 0),
		harness.CountQuery(0, 1, 0.5),
		harness.CountQuery(0, 2, 2.5),
		fleetCountQuery(0.5),
	} {
		p, err := h.Engine.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := h.Engine.ExecutePrepared(p); err != nil {
				t.Fatal(err)
			}
		}
		if fresh, _ := query.Parse(src); !reflect.DeepEqual(p.Program, fresh) {
			t.Fatalf("executing modified the program of\n%s", src)
		}
	}
}

// A finished program is not kept alive: 128 distinct ~40 KB programs
// run to done one at a time leave the live heap less than 48 MiB above
// where it started. The program cache bounds what it keeps by source
// bytes, and neither a kept plan nor a finished job holds a program of
// its own (with either, the heap grew by about 127 MiB).
func TestFinishedProgramsNotRetained(t *testing.T) {
	const programs, terms, budget = 128, 3000, 48 << 20
	h := harness.Start(t, harness.Config{Epsilon: 1e9})
	count := harness.CountQuery(0, 2, 0.001)
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var where strings.Builder
	for i := range programs {
		where.Reset()
		fmt.Fprintf(&where, "v < %d", 1000000+i)
		for k := 1; k < terms; k++ {
			fmt.Fprintf(&where, " AND v < %d", 10000+k)
		}
		src := strings.Replace(count, "FROM t", "FROM (SELECT v FROM t WHERE "+where.String()+")", 1)
		if job := h.SubmitWait("alice", src); job.State != "done" {
			t.Fatalf("program %d (%d bytes): %s %s", i, len(src), job.State, job.Error)
		}
	}
	grew := int64(heap()) - int64(before)
	t.Logf("%d programs of %d bytes: live heap grew %.1f MiB", programs, len(count)+where.Len(), float64(grew)/(1<<20))
	if grew >= budget {
		t.Fatalf("live heap grew %.1f MiB over %d finished programs, budget %d MiB", float64(grew)/(1<<20), programs, budget>>20)
	}
}
