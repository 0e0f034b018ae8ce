package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"privid/internal/dp"
	"privid/internal/geom"
	"privid/internal/mask"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/region"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

// countScene builds a deterministic scene: `n` people, each visible
// exactly 20 s (200 frames at 10 fps), entering one per minute.
func countScene(n int) *scene.Scene {
	frames := int64(n+5) * 600
	if frames < 150000 { // at least ~4 h so multi-hour windows fit
		frames = 150000
	}
	s := &scene.Scene{
		Name: "count", W: 1000, H: 500, FPS: 10,
		Start:  time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC),
		Frames: frames,
	}
	for i := 0; i < n; i++ {
		// Offset entries off chunk boundaries: an object already
		// visible in a chunk's first frame is by design not counted
		// as a new entrant in that chunk.
		enter := int64(i)*600 + 37
		exit := enter + 200
		s.Ents = append(s.Ents, &scene.Entity{
			ID: i, Class: video.Person,
			Appearances: []scene.Appearance{{
				Enter: enter, Exit: exit,
				Traj: scene.NewPath(enter, exit, 20, 40, 1,
					scene.Waypoint{T: 0, P: geom.Point{X: 10, Y: 250}},
					scene.Waypoint{T: 1, P: geom.Point{X: 990, Y: 250}}),
			}},
		})
	}
	s.BuildIndex()
	return s
}

// countNewEntrants is the §6.2 pattern for counting people without
// unique IDs: emit one row only for objects that enter during the
// chunk (visible in a later frame but not the first).
func countNewEntrants(chunk *video.Chunk) []table.Row {
	seen := map[int]bool{}
	for _, o := range chunk.Frame(0).Objects {
		if o.Class.Private() {
			seen[o.EntityID] = true
		}
	}
	var rows []table.Row
	counted := map[int]bool{}
	for f := int64(1); f < chunk.Len(); f++ {
		for _, o := range chunk.Frame(f).Objects {
			if !o.Class.Private() || seen[o.EntityID] || counted[o.EntityID] {
				continue
			}
			counted[o.EntityID] = true
			rows = append(rows, table.Row{table.N(1)})
		}
	}
	return rows
}

func newTestEngine(t *testing.T, s *scene.Scene, pol policy.Policy, eps float64) *Engine {
	t.Helper()
	e := New(Options{Seed: 1, Evaluation: true})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  s.Source("camA"),
		Policy:  pol,
		Epsilon: eps,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	return e
}

const countQuery = `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/7:00am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t;`

func TestEndToEndCount(t *testing.T) {
	s := countScene(50)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 10)
	prog, err := query.Parse(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 1 {
		t.Fatalf("%d releases", len(res.Releases))
	}
	r := res.Releases[0]
	if !r.RawSet {
		t.Fatalf("evaluation mode must expose raw")
	}
	// 50 people enter within the hour, each counted once. A person
	// visible at a chunk boundary is skipped by the entrant rule of
	// the first chunk it is already visible in, so raw == 50 exactly.
	if r.Raw != 50 {
		t.Errorf("raw=%v, want 50", r.Raw)
	}
	// Sensitivity: max_rows=20, K=1, max_chunks(25s@30s chunks)=2 -> 40.
	if r.Sensitivity != 40 {
		t.Errorf("sensitivity=%v, want 40", r.Sensitivity)
	}
	// Default budget: 1.0 for the single release.
	if r.Epsilon != 1.0 {
		t.Errorf("epsilon=%v, want 1", r.Epsilon)
	}
	if res.EpsilonSpent != 1.0 {
		t.Errorf("spent=%v", res.EpsilonSpent)
	}
	// Noise was actually applied (astronomically unlikely to be 0).
	if r.Value == r.Raw {
		t.Errorf("no noise added")
	}
}

func TestBudgetDepletionDenies(t *testing.T) {
	s := countScene(10)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 2.5)
	prog, err := query.Parse(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Each run consumes 1.0 of the 2.5 per-frame budget.
	for i := 0; i < 2; i++ {
		if _, err := e.Execute(prog); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	_, err = e.Execute(prog)
	var ex *dp.ErrBudgetExhausted
	if !errors.As(err, &ex) {
		t.Fatalf("third query should be denied, got %v", err)
	}
	// Denial consumed nothing: a cheaper query still fits.
	cheap := strings.Replace(countQuery, "SELECT COUNT(*) FROM t;", "SELECT COUNT(*) FROM t CONSUMING 0.5;", 1)
	prog2, err := query.Parse(cheap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog2); err != nil {
		t.Fatalf("cheap query after denial: %v", err)
	}
}

func TestDisjointWindowsSeparateBudgets(t *testing.T) {
	s := countScene(200) // long scene
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 1)
	q := func(beginH, endH int) string {
		return fmt.Sprintf(`
SPLIT camA BEGIN 03-15-2021/%d:00am END 03-15-2021/%d:00am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t;`, beginH, endH)
	}
	// Hour 6-7 consumes its full budget...
	prog1, err := query.Parse(q(6, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog1); err != nil {
		t.Fatal(err)
	}
	// ...but hour 8-9 has an untouched budget.
	prog2, err := query.Parse(q(8, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog2); err != nil {
		t.Fatalf("disjoint window denied: %v", err)
	}
	// Re-querying hour 6-7 is denied.
	if _, err := e.Execute(prog1); err == nil {
		t.Fatalf("re-query of depleted window should be denied")
	}
}

func TestGroupByHourStandingQuery(t *testing.T) {
	s := countScene(100)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 10)
	src := `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/10:00am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM (SELECT bin(chunk, 3600) AS hr FROM t) GROUP BY hr;`
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 4 {
		t.Fatalf("%d releases, want 4 hourly buckets", len(res.Releases))
	}
	var total float64
	for _, r := range res.Releases {
		total += r.Raw
		// Budget split evenly across releases.
		if math.Abs(r.Epsilon-0.25) > 1e-12 {
			t.Errorf("release epsilon=%v, want 0.25", r.Epsilon)
		}
	}
	// One person per minute, 60/hour, 100 total: hours 1 at 60,
	// remaining 40 in hour 2.
	if total != 100 {
		t.Errorf("bucket totals sum to %v, want 100", total)
	}
}

func TestMaskedQueryUsesMaskPolicy(t *testing.T) {
	s := countScene(20)
	grid := geom.NewGrid(s.W, s.H, 10, 10)
	// Mask the right half of the frame: people remain countable on
	// the left, and the published policy for this mask has a smaller rho.
	m := mask.FromRects(grid, geom.Rect{X0: 500, Y0: 0, X1: 1000, Y1: 500})
	pm := &mask.PolicyMap{Camera: "camA", Entries: []mask.PolicyEntry{
		{ID: "halfmask", Mask: m, Policy: policy.Policy{Rho: 12 * time.Second, K: 1}},
	}}
	e := New(Options{Seed: 1, Evaluation: true})
	if err := e.RegisterCamera(CameraConfig{
		Name:     "camA",
		Source:   s.Source("camA"),
		Policy:   policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon:  10,
		Policies: pm,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	src := `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/7:00am
  BY TIME 30sec STRIDE 0sec WITH MASK halfmask INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t;`
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Releases[0]
	// Sensitivity with mask policy: max_chunks(12s@30s)=2 -> 20*1*2=40;
	// with the default 25s policy it would be identical here, so use
	// sensitivity scale via NoiseScale: same; instead verify people
	// are still counted (mask does not hide the left half).
	if r.Raw == 0 {
		t.Errorf("masked query counted nothing")
	}
	if r.Raw != 20 {
		t.Errorf("raw=%v, want 20 (entrants enter on the unmasked left)", r.Raw)
	}
}

func TestUnknownMaskAndScheme(t *testing.T) {
	s := countScene(5)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 10)
	bad1 := strings.Replace(countQuery, "STRIDE 0sec INTO", "STRIDE 0sec WITH MASK nope INTO", 1)
	prog, err := query.Parse(bad1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog); err == nil || !strings.Contains(err.Error(), "mask") {
		t.Errorf("unknown mask: %v", err)
	}
	bad2 := strings.Replace(countQuery, "STRIDE 0sec INTO", "STRIDE 0sec BY REGION nope INTO", 1)
	prog2, err := query.Parse(bad2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog2); err == nil || !strings.Contains(err.Error(), "scheme") {
		t.Errorf("unknown scheme: %v", err)
	}
}

func TestRegionSplitHardBoundaries(t *testing.T) {
	s := countScene(30)
	sch := region.Scheme{Name: "halves", Hard: true, Regions: []region.Named{
		{Name: "top", Rect: geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 250}},
		{Name: "bottom", Rect: geom.Rect{X0: 0, Y0: 250, X1: 1000, Y1: 500}},
	}}
	e := New(Options{Seed: 1, Evaluation: true})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  s.Source("camA"),
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 10,
		Schemes: map[string]region.Scheme{"halves": sch},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	src := `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/7:00am
  BY TIME 30sec STRIDE 0sec BY REGION halves INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT region, COUNT(*) FROM t GROUP BY region WITH KEYS ["top", "bottom"];`
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 2 {
		t.Fatalf("%d releases", len(res.Releases))
	}
	// All 30 people walk at y=250, i.e. in "bottom" (y in [250,500)).
	byKey := map[string]float64{}
	for _, r := range res.Releases {
		byKey[r.Key.Str()] = r.Raw
	}
	if byKey["bottom"] != 30 || byKey["top"] != 0 {
		t.Errorf("region counts=%v", byKey)
	}
}

func TestSoftRegionRequiresFrameChunks(t *testing.T) {
	s := countScene(5)
	sch := region.Scheme{Name: "softy", Hard: false, Regions: []region.Named{
		{Name: "all", Rect: geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 500}},
	}}
	e := New(Options{Seed: 1})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  s.Source("camA"),
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 10,
		Schemes: map[string]region.Scheme{"softy": sch},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(countQuery, "STRIDE 0sec INTO", "STRIDE 0sec BY REGION softy INTO", 1)
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog); err == nil || !strings.Contains(err.Error(), "1frame") {
		t.Errorf("soft-boundary chunk check: %v", err)
	}
}

func TestUnregisteredExecutable(t *testing.T) {
	s := countScene(5)
	e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 10)
	src := strings.Replace(countQuery, "USING counter", "USING missing", 1)
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf("missing executable: %v", err)
	}
}

func TestRegisterCameraValidation(t *testing.T) {
	e := New(Options{})
	s := countScene(1)
	src := s.Source("c")
	cases := []CameraConfig{
		{Name: "", Source: src, Policy: policy.Policy{Rho: time.Second, K: 1}, Epsilon: 1},
		{Name: "a", Source: nil, Policy: policy.Policy{Rho: time.Second, K: 1}, Epsilon: 1},
		{Name: "a", Source: src, Policy: policy.Policy{Rho: -time.Second, K: 1}, Epsilon: 1},
		{Name: "a", Source: src, Policy: policy.Policy{Rho: time.Second, K: 0}, Epsilon: 1},
		{Name: "a", Source: src, Policy: policy.Policy{Rho: time.Second, K: 1}, Epsilon: 0},
	}
	for i, cfg := range cases {
		if err := e.RegisterCamera(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	good := CameraConfig{Name: "a", Source: src, Policy: policy.Policy{Rho: time.Second, K: 1}, Epsilon: 1}
	if err := e.RegisterCamera(good); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCamera(good); err == nil {
		t.Errorf("duplicate camera accepted")
	}
}

func TestParallelismDeterminism(t *testing.T) {
	s := countScene(40)
	run := func(par int) float64 {
		e := New(Options{Seed: 1, Evaluation: true, Parallelism: par})
		if err := e.RegisterCamera(CameraConfig{
			Name: "camA", Source: s.Source("camA"),
			Policy: policy.Policy{Rho: 25 * time.Second, K: 1}, Epsilon: 10,
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Registry().Register("counter", countNewEntrants); err != nil {
			t.Fatal(err)
		}
		prog, err := query.Parse(countQuery)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.Releases[0].Raw
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("parallel execution changed the raw result: %v vs %v", a, b)
	}
}

func TestNoiseAccuracyScalesWithEpsilon(t *testing.T) {
	// With a larger per-release epsilon the noise scale must shrink.
	s := countScene(20)
	run := func(consuming string) float64 {
		e := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 100)
		q := strings.Replace(countQuery, "SELECT COUNT(*) FROM t;", "SELECT COUNT(*) FROM t"+consuming+";", 1)
		prog, err := query.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.Releases[0].NoiseScale
	}
	if lo, hi := run(" CONSUMING 4"), run(" CONSUMING 0.5"); lo >= hi {
		t.Errorf("noise scale did not shrink with epsilon: %v vs %v", lo, hi)
	}
}

// TestRejectionIndependentOfRows pins the closed side channel: whether
// a statement is rejected — and therefore whether ε is charged — is
// decided from the query text and schemas alone, never from whether the
// analyst's executable emitted a row. Before the planner, the first two
// statements below succeeded (and charged) over an empty video and
// failed (charging nothing) once a single row existed: a noise-free,
// budget-free membership oracle.
func TestRejectionIndependentOfRows(t *testing.T) {
	for _, tc := range []struct{ sel, want string }{
		{`SELECT SUM(range(nosuch, 0, 1)) FROM t;`, `unknown column "nosuch"`},
		{`SELECT COUNT(*) FROM (SELECT bin(chunk, 0) AS b FROM t);`, `bin width must be positive`},
		// The grammar has no negative literal: -5 parses as an expression,
		// which used to panic in the bucket derivation instead of erroring.
		{`SELECT COUNT(*) FROM (SELECT bin(chunk, -5) AS b FROM t);`, `bin() width is not a literal`},
	} {
		prog, err := query.Parse(strings.Replace(countQuery, "SELECT COUNT(*) FROM t;", tc.sel, 1))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.sel, err)
		}
		for _, people := range []int{0, 50} {
			e := newTestEngine(t, countScene(people), policy.Policy{Rho: 25 * time.Second, K: 1}, 10)
			_, err := e.Execute(prog)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s over %d people: err = %v, want %q", tc.sel, people, err, tc.want)
			}
			if rem, rerr := e.Remaining("camA", 100); rerr != nil || rem != 10 {
				t.Errorf("%s over %d people: remaining = %v (%v), want the untouched 10", tc.sel, people, rem, rerr)
			}
		}
	}
}
