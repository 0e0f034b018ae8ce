package core

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/region"
	"privid/internal/table"
	"privid/internal/video"
)

// one is an executable that yields one row for every chunk it sees.
func one(*video.Chunk) []table.Row { return []table.Row{{table.N(1)}} }

// A region-split SPLIT resolves its splits in the scheme's region
// order, so the materialised table's rows, and with them any LIMIT
// over it, are the same on every run. Region splits were once built by
// ranging over a map, and a fresh engine picked its LIMIT row from
// either region.
func TestRegionSplitOrderDeterministic(t *testing.T) {
	quarters := region.Scheme{Name: "quarters", Hard: true}
	for i, name := range []string{"nw", "ne", "sw", "se"} {
		x, y := float64(i%2)*500, float64(i/2)*250
		quarters.Regions = append(quarters.Regions, region.Named{Name: name, Rect: geom.Rect{X0: x, Y0: y, X1: x + 500, Y1: y + 250}})
	}
	halves := region.Scheme{Name: "halves", Hard: true, Regions: []region.Named{
		{Name: "top", Rect: geom.Rect{X1: 1000, Y1: 250}},
		{Name: "bottom", Rect: geom.Rect{Y0: 250, X1: 1000, Y1: 500}},
	}}
	s := countScene(5)
	engine := func() *Engine {
		e := New(Options{Seed: 1, Evaluation: true})
		if err := e.RegisterCamera(CameraConfig{
			Name: "camA", Source: s.Source("camA"),
			Policy: policy.Policy{Rho: 25 * time.Second, K: 1}, Epsilon: 1e9,
			Schemes: map[string]region.Scheme{"quarters": quarters, "halves": halves},
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Registry().Register("one", one); err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := engine()
	prog, err := query.Parse(`SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:05am
  BY TIME 30sec STRIDE 0sec BY REGION quarters INTO c;
PROCESS c USING one TIMEOUT 5sec PRODUCING 1 ROWS WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range quarters.Regions {
		want = append(want, r.Name)
	}
	for range 20 {
		plan := resolveSet(t, e, prog)
		var got []string
		for _, sp := range plan.shards[0].splits {
			got = append(got, sp.Region)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("splits in order %v, want the scheme's %v", got, want)
		}
	}

	limit, err := query.Parse(`SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:05am
  BY TIME 30sec STRIDE 0sec BY REGION halves INTO c;
PROCESS c USING one TIMEOUT 5sec PRODUCING 1 ROWS WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT region, COUNT(*) FROM (SELECT * FROM t LIMIT 1) GROUP BY region WITH KEYS ["top", "bottom"];`)
	if err != nil {
		t.Fatal(err)
	}
	for run := range 50 {
		res, err := engine().Execute(limit)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Releases {
			if want := map[string]float64{"top": 1, "bottom": 0}[r.Key.Str()]; r.Raw != want {
				t.Fatalf("run %d: the LIMIT row is not the first region's: %+v", run, res.Releases)
			}
		}
	}
}

// One parsed program executed from 8 goroutines at once (as the
// scheduler's parse cache and a standing query share one) gives every
// goroutine the same raw releases and leaves the program as parsed.
// Run under -race.
func TestSharedProgramConcurrentExecute(t *testing.T) {
	const src = `SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/7:00am
  BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO u;
SELECT COUNT(*) FROM t CONSUMING 0.01;
SELECT AVG(range(one, 0, 1)) FROM u CONSUMING 0.01;`
	e := newTestEngine(t, countScene(40), policy.Policy{Rho: 25 * time.Second, K: 1}, 1e9)
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	raws := make([][]float64, 8)
	var wg sync.WaitGroup
	for g := range raws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				res, err := e.Execute(prog)
				if err != nil {
					t.Error(err)
					return
				}
				raws[g] = raws[g][:0]
				for _, r := range res.Releases {
					raws[g] = append(raws[g], r.Raw)
				}
			}
		}()
	}
	wg.Wait()
	for g := range raws {
		if !slices.Equal(raws[g], raws[0]) || len(raws[g]) != 2 {
			t.Fatalf("goroutine %d released %v, goroutine 0 %v", g, raws[g], raws[0])
		}
	}
	if fresh, _ := query.Parse(src); !reflect.DeepEqual(prog, fresh) {
		t.Fatal("concurrent execution modified the shared program")
	}
	if hits := e.StatsGroups()["plan_memo"]["hits"]; hits == 0 {
		t.Fatal("32 executions of one program never hit the planner memo")
	}
}

// growingSource is a live camera: its stream grows as video arrives.
type growingSource struct {
	video.Source
	frames atomic.Int64
}

func (g *growingSource) Info() video.Info {
	info := g.Source.Info()
	info.Frames = g.frames.Load()
	return info
}

// A program whose camera's bounds grew between two executions is
// planned again: the memo checks the shard metadata, so the second
// run's release covers the grown window, exactly as a fresh engine's
// does. An unchanged third run is a hit.
func TestPlanMemoReplansWhenBoundsGrow(t *testing.T) {
	s := countScene(50)
	src := &growingSource{Source: s.Source("camA")}
	src.frames.Store(18000) // 30 of the window's 60 minutes
	e := New(Options{Seed: 1, Evaluation: true})
	if err := e.RegisterCamera(CameraConfig{Name: "camA", Source: src,
		Policy: policy.Policy{Rho: 25 * time.Second, K: 1}, Epsilon: 1e9}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	memo := func() (hits, misses float64) {
		g := e.StatsGroups()["plan_memo"]
		return g["hits"], g["misses"]
	}
	half, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	src.frames.Store(s.Frames)
	full, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := memo(); hits != 0 || misses != 2 {
		t.Fatalf("after the bounds grew: %v hits, %v misses; want a re-plan", hits, misses)
	}
	want, err := newTestEngine(t, s, policy.Policy{Rho: 25 * time.Second, K: 1}, 1e9).Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	h, f, w := half.Releases[0], full.Releases[0], want.Releases[0]
	if !f.End.Equal(w.End) || f.Raw != w.Raw || f.Sensitivity != w.Sensitivity || f.End.Equal(h.End) {
		t.Fatalf("grown run released %+v\nwant %+v (half-window run %+v)", f, w, h)
	}
	if _, err := e.Execute(prog); err != nil {
		t.Fatal(err)
	}
	if hits, misses := memo(); hits != 1 || misses != 2 {
		t.Fatalf("unchanged repeat: %v hits, %v misses; want one hit", hits, misses)
	}
}

// The memo checks each shard's mask and region scheme: the cache-key
// prefixes depend on them, and the shard metadata alone cannot tell two
// schemes with the same region count apart. A program whose SPLIT is
// swapped, between two executions, for one naming another scheme must
// get the releases a fresh engine gives the new program.
func TestPlanMemoChecksMaskAndScheme(t *testing.T) {
	s := countScene(20)
	schemes := map[string]region.Scheme{
		"rows": {Name: "rows", Hard: true, Regions: []region.Named{
			{Name: "top", Rect: geom.Rect{X1: 1000, Y1: 250}},
			{Name: "bottom", Rect: geom.Rect{Y0: 250, X1: 1000, Y1: 500}},
		}},
		"cols": {Name: "cols", Hard: true, Regions: []region.Named{
			{Name: "left", Rect: geom.Rect{X1: 500, Y1: 500}},
			{Name: "right", Rect: geom.Rect{X0: 500, X1: 1000, Y1: 500}},
		}},
	}
	engine := func() *Engine {
		e := New(Options{Seed: 1, Evaluation: true})
		if err := e.RegisterCamera(CameraConfig{
			Name: "camA", Source: s.Source("camA"),
			Policy: policy.Policy{Rho: 25 * time.Second, K: 1}, Epsilon: 1e9, Schemes: schemes,
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Registry().Register("counter", countNewEntrants); err != nil {
			t.Fatal(err)
		}
		return e
	}
	parse := func(scheme string) *query.Program {
		prog, err := query.Parse(`SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:20am
  BY TIME 30sec STRIDE 0sec BY REGION ` + scheme + ` INTO chunks;
PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 20 ROWS WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT region, COUNT(*) FROM t GROUP BY region WITH KEYS ["top", "bottom", "left", "right"];`)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	raws := func(e *Engine, prog *query.Program) []float64 {
		res, err := e.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, r := range res.Releases {
			out = append(out, r.Raw)
		}
		return out
	}
	e, prog := engine(), parse("rows")
	raws(e, prog)
	prog.Splits = parse("cols").Splits
	if got, want := raws(e, prog), raws(engine(), parse("cols")); !slices.Equal(got, want) {
		t.Fatalf("the program under another scheme released %v, a fresh engine %v", got, want)
	}
}
