package server

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"privid/internal/core"
	"privid/internal/policy"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// wireShapes are the four engine shapes core's TestMetricFamiliesGolden
// pins. The disk shape's RAM tier is too small to hold any block, so a
// repeated query is served by the disk tier.
var wireShapes = []struct {
	name  string
	cache bool
	opts  func(dir string) core.Options
}{
	{"ram_only", true, func(string) core.Options { return core.Options{} }},
	{"ram_and_disk", true, func(dir string) core.Options {
		return core.Options{DiskCacheDir: filepath.Join(dir, "chunks"), ChunkCacheBytes: 1}
	}},
	{"cache_disabled", false, func(string) core.Options { return core.Options{ChunkCacheBytes: -1} }},
	{"durable", true, func(dir string) core.Options {
		return core.Options{StateDir: filepath.Join(dir, "state"), SnapshotEvery: 8}
	}},
}

// gateQuery reads one chunk through the gate executable. AVG is not
// mergeable, so the chunk goes through the table tier.
const gateQuery = `
SPLIT campus BEGIN 3-15-2021/6:00am END 3-15-2021/6:01am
  BY TIME 1min STRIDE 0sec INTO c;
PROCESS c USING gate TIMEOUT 10sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT AVG(range(n, 0, 10)) FROM t CONSUMING 0.01;`

// gateCountQuery is a pushdown COUNT over ten cold chunks.
const gateCountQuery = `
SPLIT campus BEGIN 3-15-2021/6:00am END 3-15-2021/6:05am
  BY TIME 30sec STRIDE 0sec INTO c;
PROCESS c USING gate TIMEOUT 10sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.01;`

// shapeStack serves an engine built from opts and runs a small
// workload on it: two concurrent identical cold queries (the second a
// singleflight follower when a cache exists), a repeat of them (a RAM
// or disk hit), and a pushdown COUNT. It returns once every job is
// terminal, so the counters are quiescent.
func shapeStack(t *testing.T, opts core.Options, cached bool) (*core.Engine, *Scheduler, string) {
	t.Helper()
	opts.Seed, opts.Parallelism = 1, 4
	e, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	if err := e.RegisterCamera(core.CameraConfig{
		Name:    "campus",
		Source:  &video.SceneSource{Camera: "campus", Scene: scene.Generate(scene.Campus(), 1, 10*time.Minute)},
		Policy:  policy.Policy{Rho: time.Minute, K: 2},
		Epsilon: 100,
	}); err != nil {
		t.Fatal(err)
	}
	gate, started := make(chan struct{}), make(chan struct{}, 1)
	if err := e.Registry().Register("gate", func(*video.Chunk) []table.Row {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return []table.Row{{table.N(1)}}
	}); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(e, SchedulerOptions{Workers: 2, SlowQueryLog: io.Discard, SlowQueryThreshold: time.Nanosecond})
	t.Cleanup(sched.Close)
	ts := httptest.NewServer(NewAPI(e, sched))
	t.Cleanup(ts.Close)

	submit := func(analyst, q string) string {
		id, err := sched.Submit(analyst, q)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	leader := submit("alice", gateQuery)
	<-started
	follower := submit("bob", gateQuery)
	deadline := time.Now().Add(30 * time.Second)
	if cached {
		for e.FlightStats().Waiting != 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	} else {
		<-started
	}
	close(gate)
	ids := []string{leader, follower, submit("carol", gateQuery), submit("dave", gateCountQuery)}
	for _, id := range ids {
		if j := pollJob(t, ts.URL, id); j.State != JobDone {
			t.Fatalf("job %s: %s %s", id, j.State, j.Error)
		}
	}
	// A job reads done before the worker commits its terminal record
	// and then writes its slow-log entry; every job is slow, so the
	// last entry marks the stack quiescent.
	for sched.Stats().SlowQueries != int64(len(ids)) {
		if time.Now().After(deadline) {
			t.Fatalf("slow-log entries = %d, want %d", sched.Stats().SlowQueries, len(ids))
		}
		time.Sleep(time.Millisecond)
	}
	return e, sched, ts.URL
}

// jsonPaths adds one "path type" line per leaf of v to out, with array
// elements folded into "[]".
func jsonPaths(path string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			jsonPaths(path+"."+k, c, out)
		}
	case []any:
		out[path+" array"] = true
		for _, c := range v {
			jsonPaths(path+"[]", c, out)
		}
	case float64:
		out[path+" number"] = true
	case string:
		out[path+" string"] = true
	case bool:
		out[path+" bool"] = true
	default:
		out[fmt.Sprintf("%s %T", path, v)] = true
	}
}

// The key paths and value types of /v1/stats and /v1/state are a wire
// contract (dashboards and the harness decode them); pin them for each
// engine shape.
func TestWireShapesGolden(t *testing.T) {
	var got strings.Builder
	for _, shape := range wireShapes {
		_, _, url := shapeStack(t, shape.opts(t.TempDir()), shape.cache)
		got.WriteString("== " + shape.name + "\n")
		for _, ep := range []string{"/v1/stats", "/v1/state"} {
			resp, err := http.Get(url + ep)
			if err != nil {
				t.Fatal(err)
			}
			paths := map[string]bool{}
			jsonPaths(ep, decode[any](t, resp), paths)
			lines := make([]string, 0, len(paths))
			for p := range paths {
				lines = append(lines, p)
			}
			sort.Strings(lines)
			got.WriteString(strings.Join(lines, "\n") + "\n")
		}
	}
	golden := filepath.Join("testdata", "wire_shapes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("wire shapes drifted from %s (rerun with -update if intended):\ngot:\n%s", golden, got.String())
	}
}

// TestOperationsNamesEveryFamily keeps the operator docs from going
// stale: every family an engine of any shape registers, scheduler
// families included, must be named in docs/OPERATIONS.md.
func TestOperationsNamesEveryFamily(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, shape := range wireShapes {
		e, err := core.Open(shape.opts(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		sched := NewScheduler(e, SchedulerOptions{})
		var buf strings.Builder
		if _, err := e.Metrics().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sched.Close()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ = strings.Cut(name, " ")
				if !seen[name] && !strings.Contains(string(doc), "`"+name+"`") {
					t.Errorf("family %s is not named in docs/OPERATIONS.md", name)
				}
				seen[name] = true
			}
		}
	}
}
