package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/dp"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

// newFleetEngine registers n copies of the count scene as cameras
// camA, camB, camC, ... with the counter executable.
func newFleetEngine(t *testing.T, opts Options, n int, eps float64) *Engine {
	t.Helper()
	e := New(opts)
	s := countScene(10)
	for i := 0; i < n; i++ {
		name := "cam" + string(rune('A'+i))
		if err := e.RegisterCamera(CameraConfig{
			Name:    name,
			Source:  &video.SceneSource{Camera: name, Scene: s},
			Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
			Epsilon: eps,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	return e
}

const fleetQuery = `
SPLIT camA, camB, camC BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO fleet;
PROCESS fleet USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.2;`

// A multi-camera PROCESS table must carry the trusted camera column,
// with each row attributed to its shard.
func TestMultiCameraProvenanceColumn(t *testing.T) {
	e := newFleetEngine(t, Options{Seed: 1}, 3, 10)
	prog, err := query.Parse(fleetQuery)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.resolveSplit(prog.Splits[0])
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := e.runProcess(prog.Processes[0], plan, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ci := inst.Data.Schema.Index(table.CameraColumn)
	if ci < 0 {
		t.Fatalf("multi-camera table lacks the %q column: %v", table.CameraColumn, inst.Data.Schema.Names())
	}
	counts := map[string]int{}
	for _, row := range inst.Data.Rows() {
		counts[row[ci].Str()]++
	}
	for _, cam := range []string{"camA", "camB", "camC"} {
		if counts[cam] == 0 {
			t.Errorf("no rows attributed to %s (got %v)", cam, counts)
		}
	}
	if len(inst.Metas) != 3 {
		t.Fatalf("shard metas = %d, want 3", len(inst.Metas))
	}
	// Single-camera tables must NOT grow the column (wire compat).
	single, err := query.Parse(strings.Replace(fleetQuery, "camA, camB, camC", "camA", 1))
	if err != nil {
		t.Fatal(err)
	}
	sPlan, err := e.resolveSplit(single.Splits[0])
	if err != nil {
		t.Fatal(err)
	}
	sInst, _, err := e.runProcess(single.Processes[0], sPlan, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sInst.Data.Schema.Has(table.CameraColumn) {
		t.Errorf("single-camera table grew a %q column", table.CameraColumn)
	}
}

// The shard fan-out has no observable semantics: however the shards'
// completions interleave, a multi-camera PROCESS must produce exactly
// the per-camera single-shard outputs combined in shard order — the
// table bytes on the materialized path, the release bits on the
// pushdown path. The executable emits camera-dependent fractions, so a
// float SUM merged in any other order comes out different, and it
// forces the hostile schedule: every shard's chunks block until the
// next shard has finished, so the shards complete in reverse order.
func TestShardedMatchesSerialTables(t *testing.T) {
	prog, err := query.Parse(`
SPLIT camA, camB, camC BEGIN 03-15-2021/6:00am END 03-15-2021/6:10am
  BY TIME 30sec STRIDE 0sec INTO fleet;
PROCESS fleet USING jitter TIMEOUT 5sec PRODUCING 1 ROWS
  WITH SCHEMA (v:NUMBER=0) INTO t;
SELECT SUM(range(v, 0, 1)) FROM t CONSUMING 0.2;
SELECT COUNT(*) FROM t CONSUMING 0.2;`)
	if err != nil {
		t.Fatal(err)
	}
	proc := prog.Processes[0]
	const chunksPerCam = 20
	// newEngine registers the jitter executable. When gated, a camera's
	// chunks wait for the camera after it to finish all of its own
	// (needs PerCameraParallelism × 3 ≤ Parallelism, or the waiters
	// would hold every slot); otherwise they just sleep longer the
	// earlier the shard. Caching is off so every run executes.
	newEngine := func(opts Options, gated bool) (*Engine, *splitPlan) {
		opts.Seed, opts.ChunkCacheBytes = 1, -1
		e := newFleetEngine(t, opts, 3, 10)
		var left [3]atomic.Int32
		var done [3]chan struct{}
		for i := range done {
			left[i].Store(chunksPerCam)
			done[i] = make(chan struct{})
		}
		if err := e.Registry().Register("jitter", func(chunk *video.Chunk) []table.Row {
			cam := int(chunk.Camera[3] - 'A')
			if !gated {
				time.Sleep(time.Duration(2-cam) * 500 * time.Microsecond)
			} else if cam < 2 {
				<-done[cam+1]
			}
			if gated && left[cam].Add(-1) == 0 {
				close(done[cam])
			}
			v := 0.1 * float64(cam+1) / float64(1+chunk.Interval.Start%7)
			return []table.Row{{table.N(v)}}
		}); err != nil {
			t.Fatal(err)
		}
		plan, err := e.resolveSplit(prog.Splits[0])
		if err != nil {
			t.Fatal(err)
		}
		return e, plan
	}

	// Expectation: each camera as its own single-shard run, combined in
	// shard order the way runProcess documents it — tables appended,
	// states merged into an empty one (so a SUM is ((0+A)+B)+C).
	ref, refPlan := newEngine(Options{Parallelism: 1}, false)
	wantTable := table.New(table.MustSchema(table.Column{Name: "v", Type: table.DNumber, Default: table.N(0)}).WithImplicitCols(false, true))
	var camSums []float64
	var wantSum, wantCount float64
	for i := range refPlan.shards {
		one := &splitPlan{multi: true, shards: refPlan.shards[i : i+1]}
		inst, _, err := ref.runProcess(proc, one, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantTable.AppendTable(inst.Data)
		_, rels, err := ref.runProcess(proc, one, prog.Selects, nil)
		if err != nil {
			t.Fatal(err)
		}
		camSums = append(camSums, rels[prog.Selects[0]][0].Raw)
		wantSum += camSums[i]
		wantCount += rels[prog.Selects[1]][0].Raw
	}
	if wantCount != 3*chunksPerCam {
		t.Fatalf("fixture holds %v chunks, want %d", wantCount, 3*chunksPerCam)
	}
	if reversed := camSums[2] + camSums[1] + camSums[0]; reversed == wantSum {
		t.Fatalf("fixture cannot tell merge orders apart: both sum to %v", wantSum)
	}

	for _, tc := range []struct {
		name  string
		opts  Options
		gated bool
	}{
		{"parallelism 1", Options{Parallelism: 1}, false},
		{"parallelism 8, shards finish in reverse", Options{Parallelism: 8, PerCameraParallelism: 2}, true},
	} {
		e, plan := newEngine(tc.opts, tc.gated)
		inst, _, err := e.runProcess(proc, plan, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inst.Data.EncodeBinary(), wantTable.EncodeBinary()) {
			t.Errorf("%s: sharded table differs from the shards in order:\nwant:\n%s\ngot:\n%s", tc.name, wantTable, inst.Data)
		}
		e, plan = newEngine(tc.opts, tc.gated) // fresh gates
		_, rels, err := e.runProcess(proc, plan, prog.Selects, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rels[prog.Selects[0]][0].Raw; math.Float64bits(got) != math.Float64bits(wantSum) {
			t.Errorf("%s: pushdown SUM = %v, want %v (shard states merged out of order)", tc.name, got, wantSum)
		}
		if got := rels[prog.Selects[1]][0].Raw; got != wantCount {
			t.Errorf("%s: pushdown COUNT = %v, want %v", tc.name, got, wantCount)
		}
	}
}

// MERGE of single-camera chunk sets must behave like the equivalent
// multi-camera SPLIT (same rows, same provenance).
func TestMergeMatchesMultiSplit(t *testing.T) {
	merged := `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO a;
SPLIT camB BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO b;
MERGE a, b INTO fleet;
PROCESS fleet USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.2;`
	split := strings.Replace(strings.Replace(merged,
		"MERGE a, b INTO fleet;", "", 1),
		"SPLIT camA BEGIN", "SPLIT camA, camB BEGIN", 1)
	split = strings.Replace(split, "INTO a;", "INTO fleet;", 1)
	split = strings.Replace(split, `SPLIT camB BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO b;`, "", 1)

	run := func(src string) (*Result, *Engine) {
		e := newFleetEngine(t, Options{Seed: 1, Evaluation: true}, 2, 10)
		prog, err := query.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := e.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res, e
	}
	rm, _ := run(merged)
	rs, _ := run(split)
	if len(rm.Releases) != 1 || len(rs.Releases) != 1 {
		t.Fatalf("release counts: %d vs %d", len(rm.Releases), len(rs.Releases))
	}
	if rm.Releases[0].Raw != rs.Releases[0].Raw {
		t.Errorf("raw counts differ: merge=%v split=%v", rm.Releases[0].Raw, rs.Releases[0].Raw)
	}
	if rm.Releases[0].Sensitivity != rs.Releases[0].Sensitivity {
		t.Errorf("sensitivities differ: merge=%v split=%v", rm.Releases[0].Sensitivity, rs.Releases[0].Sensitivity)
	}
	if len(rm.Cameras) != 2 || len(rs.Cameras) != 2 {
		t.Errorf("camera budget counts: merge=%d split=%d, want 2", len(rm.Cameras), len(rs.Cameras))
	}
}

// One camera denying must charge no camera anything, and the denial
// must name the denying camera.
func TestAtomicAdmissionAcrossCameras(t *testing.T) {
	e := newFleetEngine(t, Options{Seed: 1}, 2, 10)
	// camC gets almost no budget.
	s := countScene(10)
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camC",
		Source:  &video.SceneSource{Camera: "camC", Scene: s},
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 0.01,
	}); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(fleetQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Execute(prog)
	var exhausted *dp.ErrBudgetExhausted
	if !errors.As(err, &exhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if exhausted.Camera != "camC" {
		t.Errorf("denying camera = %q, want camC", exhausted.Camera)
	}
	for _, cam := range []string{"camA", "camB"} {
		rem, err := e.Remaining(cam, 100)
		if err != nil {
			t.Fatal(err)
		}
		if rem != 10 {
			t.Errorf("%s remaining = %v, want untouched 10", cam, rem)
		}
	}
	// One denied audit record naming every touched camera.
	log := e.AuditLog()
	if len(log) != 1 || !log[0].Denied {
		t.Fatalf("audit = %+v, want one denied entry", log)
	}
	if len(log[0].Cameras) != 3 {
		t.Errorf("audit cameras = %v, want all three", log[0].Cameras)
	}
}

// Result.Cameras must report each camera's charge and post-charge
// remaining budget.
func TestPerCameraBudgetReport(t *testing.T) {
	e := newFleetEngine(t, Options{Seed: 1}, 3, 10)
	prog, err := query.Parse(fleetQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cameras) != 3 {
		t.Fatalf("camera budgets = %+v, want 3 entries", res.Cameras)
	}
	for i, cb := range res.Cameras {
		want := "cam" + string(rune('A'+i))
		if cb.Camera != want {
			t.Errorf("cameras[%d] = %q, want %q (sorted)", i, cb.Camera, want)
		}
		if math.Abs(cb.EpsilonSpent-0.2) > 1e-12 {
			t.Errorf("%s spent = %v, want 0.2", cb.Camera, cb.EpsilonSpent)
		}
		if math.Abs(cb.Remaining-9.8) > 1e-9 {
			t.Errorf("%s remaining = %v, want 9.8", cb.Camera, cb.Remaining)
		}
	}
}

// Fleet-wide aggregates compose sensitivity additively across cameras
// (Fig. 10's UNION rule); GROUP BY camera releases carry only their
// own camera's delta and charge only their own camera's ledger.
func TestPerCameraSensitivityComposition(t *testing.T) {
	e := newFleetEngine(t, Options{Seed: 1, Evaluation: true}, 3, 10)
	prog, err := query.Parse(`
SPLIT camA, camB, camC BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO fleet;
PROCESS fleet USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.2;
SELECT camera, COUNT(*) FROM t
  GROUP BY camera WITH KEYS ["camA", "camB", "camC"] CONSUMING 0.2;`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 4 {
		t.Fatalf("releases = %d, want 4", len(res.Releases))
	}
	// Per-camera delta: 20 rows × K=1 × max_chunks(ρ=25 s, chunk=30 s)
	// = 20 × 2 = 40; the fleet-wide count's Δ is the 3-camera sum.
	perCam := 40.0
	if got := res.Releases[0].Sensitivity; got != 3*perCam {
		t.Errorf("fleet-wide Δ = %v, want %v", got, 3*perCam)
	}
	for _, r := range res.Releases[1:] {
		if r.Sensitivity != perCam {
			t.Errorf("%s Δ = %v, want per-camera %v", r.Desc, r.Sensitivity, perCam)
		}
	}
	// Budget: each camera pays the fleet-wide release (0.2) plus only
	// its own keyed release (0.2), never the siblings'.
	for _, cb := range res.Cameras {
		if math.Abs(cb.EpsilonSpent-0.4) > 1e-12 {
			t.Errorf("%s spent = %v, want 0.4", cb.Camera, cb.EpsilonSpent)
		}
	}
}

// Merging windows that touch different spans must charge each camera
// only over its own queried window.
func TestPerCameraChargeWindows(t *testing.T) {
	e := newFleetEngine(t, Options{Seed: 1}, 2, 10)
	prog, err := query.Parse(`
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:10am
  BY TIME 30sec STRIDE 0sec INTO a;
SPLIT camB BEGIN 03-15-2021/6:10am END 03-15-2021/6:20am
  BY TIME 30sec STRIDE 0sec INTO b;
MERGE a, b INTO fleet;
PROCESS fleet USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.2;`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog); err != nil {
		t.Fatal(err)
	}
	// camA was queried over [6:00, 6:10) = frames [0, 6000); a frame
	// in camB's exclusive span must be untouched on camA.
	if rem, _ := e.Remaining("camA", 3000); math.Abs(rem-9.8) > 1e-9 {
		t.Errorf("camA in-window remaining = %v, want 9.8", rem)
	}
	if rem, _ := e.Remaining("camA", 9000); rem != 10 {
		t.Errorf("camA out-of-window remaining = %v, want untouched 10", rem)
	}
	if rem, _ := e.Remaining("camB", 9000); math.Abs(rem-9.8) > 1e-9 {
		t.Errorf("camB in-window remaining = %v, want 9.8", rem)
	}
	if rem, _ := e.Remaining("camB", 3000); rem != 10 {
		t.Errorf("camB out-of-window remaining = %v, want untouched 10", rem)
	}
}

// A chunk cached for one camera must not leak to a sibling camera
// observing different video (per-camera cache identity), while
// repeating the fleet query hits the cache for every shard.
func TestChunkCachePerCamera(t *testing.T) {
	e := New(Options{Seed: 1})
	sA, sB := countScene(3), countScene(7)
	for _, c := range []struct {
		name string
		s    *scene.Scene
	}{{"camA", sA}, {"camB", sB}} {
		if err := e.RegisterCamera(CameraConfig{
			Name:    c.name,
			Source:  &video.SceneSource{Camera: c.name, Scene: c.s},
			Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
			Epsilon: 1e6,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(`
SPLIT camA, camB BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO fleet;
PROCESS fleet USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.001;`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Hits != 0 || st.StateHits != 0 {
		t.Fatalf("cold run hit the cache: %+v", st)
	}
	r2, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	// COUNT(*) pushes down, so the warm rerun is served entirely from
	// the partial-state tier: one state hit per (chunk, plan) across
	// both shards, never touching the table tier.
	st := e.CacheStats()
	if st.StateMisses != st.StatePuts || st.StateHits != st.StateMisses || st.StateHits == 0 {
		t.Errorf("warm rerun should hit every chunk state of both shards: %+v", st)
	}
	// 3 vs 7 entrants: the two cameras genuinely differ, so a key
	// collision between shards would corrupt the count.
	if len(r1.Releases) != 1 || r1.Releases[0].Epsilon != r2.Releases[0].Epsilon {
		t.Errorf("results differ structurally: %+v vs %+v", r1, r2)
	}
}
