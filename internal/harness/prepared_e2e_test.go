package harness_test

import (
	"reflect"
	"testing"

	"privid/internal/harness"
	"privid/internal/query"
)

// TestExecuteLeavesProgramUnchanged runs every harness fixture program
// twice on the harness's engine — a planner-memo miss, then a hit — and
// requires the program afterwards to equal a fresh parse: the engine
// never writes a program, so the scheduler's parse cache may share one
// between jobs.
func TestExecuteLeavesProgramUnchanged(t *testing.T) {
	h := harness.Start(t, harness.Config{Cameras: 3, Epsilon: 100})
	for _, src := range []string{
		harness.CountQuery(0, 2, 0),
		harness.CountQuery(0, 1, 0.5),
		harness.CountQuery(0, 2, 2.5),
		fleetCountQuery(0.5),
	} {
		prog, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := h.Engine.Execute(prog); err != nil {
				t.Fatal(err)
			}
		}
		if fresh, _ := query.Parse(src); !reflect.DeepEqual(prog, fresh) {
			t.Fatalf("executing modified the program of\n%s", src)
		}
	}
}
