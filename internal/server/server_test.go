package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"privid/internal/core"
	"privid/internal/policy"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

// newTestEngine registers one synthetic campus camera (10 minutes at
// 10 fps, stream anchored at 2021-03-15 6:00am) and a cheap headcount
// executable.
func newTestEngine(t testing.TB) *core.Engine {
	return newTestEngineWith(t, core.Options{Seed: 1})
}

// newTestEngineWith is newTestEngine over an engine built from opts.
func newTestEngineWith(t testing.TB, opts core.Options) *core.Engine {
	t.Helper()
	e := core.New(opts)
	s := scene.Generate(scene.Campus(), 1, 10*time.Minute)
	if err := e.RegisterCamera(core.CameraConfig{
		Name:    "campus",
		Source:  s.Source("campus"),
		Policy:  policy.Policy{Rho: time.Minute, K: 2},
		Epsilon: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("headcount", func(chunk *video.Chunk) []table.Row {
		n := 0
		for _, o := range chunk.Frame(chunk.Len() / 2).Objects {
			if o.EntityID >= 0 {
				n++
			}
		}
		return []table.Row{{table.N(float64(n))}}
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

const testQuery = `
SPLIT campus BEGIN 3-15-2021/6:00am END 3-15-2021/6:05am
  BY TIME 30sec STRIDE 0sec INTO c;
PROCESS c USING headcount TIMEOUT 5sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.01;`

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// pollJob polls the job endpoint until the job reaches a terminal
// state; the server's hold on each poll paces the loop.
func pollJob(t *testing.T, base, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/queries/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		j := decode[jobJSON](t, resp)
		if j.State == JobDone || j.State == JobFailed {
			return j
		}
	}
	t.Fatalf("job %s did not finish", id)
	return jobJSON{}
}

func TestHTTPSubmitPollResult(t *testing.T) {
	engine := newTestEngine(t)
	sched := NewScheduler(engine, SchedulerOptions{Workers: 2})
	defer sched.Close()
	ts := httptest.NewServer(NewAPI(engine, sched))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/queries", submitRequest{Analyst: "alice", Query: testQuery})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	sub := decode[jobJSON](t, resp)
	if sub.ID == "" || sub.Analyst != "alice" {
		t.Fatalf("bad submit response %+v", sub)
	}

	job := pollJob(t, ts.URL, sub.ID)
	if job.State != JobDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	if job.Result == nil || len(job.Result.Releases) != 1 {
		t.Fatalf("bad result %+v", job.Result)
	}
	if job.Result.EpsilonSpent <= 0 {
		t.Fatalf("no budget consumed: %+v", job.Result)
	}

	// The result endpoint returns the same releases.
	resp2, err := http.Get(ts.URL + "/v1/queries/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp2.StatusCode)
	}
	res := decode[resultJSON](t, resp2)
	if len(res.Releases) != 1 || res.Releases[0].Desc != job.Result.Releases[0].Desc {
		t.Fatalf("result mismatch: %+v vs %+v", res, job.Result)
	}

	// The liveness probe answers, and the job listing is in submission
	// order, filters by analyst, and never carries a result.
	if resp, err := http.Get(ts.URL + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	} else if h := decode[map[string]string](t, resp); h["status"] != "ok" {
		t.Fatalf("healthz body %v", h)
	}
	bob := decode[jobJSON](t, postJSON(t, ts.URL+"/v1/queries", submitRequest{Analyst: "bob", Query: testQuery}))
	pollJob(t, ts.URL, bob.ID)
	for query, want := range map[string][]string{"": {sub.ID, bob.ID}, "?analyst=bob": {bob.ID}, "?analyst=carol": {}} {
		resp, err := http.Get(ts.URL + "/v1/queries" + query)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, j := range decode[[]map[string]json.RawMessage](t, resp) {
			var id string
			_ = json.Unmarshal(j["id"], &id)
			if _, ok := j["result"]; ok {
				t.Errorf("listing %q carries job %s's result", query, id)
			}
			ids = append(ids, id)
		}
		if !slices.Equal(ids, want) {
			t.Errorf("listing %q: jobs %v, want %v", query, ids, want)
		}
	}
}

func TestHTTPConcurrentAnalysts(t *testing.T) {
	engine := newTestEngine(t)
	sched := NewScheduler(engine, SchedulerOptions{Workers: 4, PerAnalystInFlight: 8})
	defer sched.Close()
	ts := httptest.NewServer(NewAPI(engine, sched))
	defer ts.Close()

	const analysts = 4
	const perAnalyst = 3
	var wg sync.WaitGroup
	errs := make(chan error, analysts*perAnalyst)
	for a := 0; a < analysts; a++ {
		for q := 0; q < perAnalyst; q++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				resp := postJSON(t, ts.URL+"/v1/queries",
					submitRequest{Analyst: fmt.Sprintf("analyst-%d", a), Query: testQuery})
				if resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("submit status %d", resp.StatusCode)
					return
				}
				sub := decode[jobJSON](t, resp)
				job := pollJob(t, ts.URL, sub.ID)
				if job.State != JobDone {
					errs <- fmt.Errorf("job %s failed: %s", job.ID, job.Error)
				}
			}(a)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every submission shows up in the audit log with budget consumed.
	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	audit := decode[[]core.AuditEntry](t, resp)
	if len(audit) != analysts*perAnalyst {
		t.Fatalf("audit has %d entries, want %d", len(audit), analysts*perAnalyst)
	}

	// Identical repeated queries should have hit the chunk cache — the
	// partial-state tier when the aggregation pushes down, the table
	// tier otherwise.
	st := engine.CacheStats()
	if st.Hits == 0 && st.StateHits == 0 {
		t.Fatalf("expected chunk-cache hits across repeated queries, got %+v", st)
	}
}

func TestHTTPPerAnalystLimit(t *testing.T) {
	engine := newTestEngine(t)
	gate := make(chan struct{})
	if err := engine.Registry().Register("slow", func(chunk *video.Chunk) []table.Row {
		<-gate
		return []table.Row{{table.N(1)}}
	}); err != nil {
		t.Fatal(err)
	}
	slowQuery := strings.ReplaceAll(testQuery, "USING headcount", "USING slow")

	sched := NewScheduler(engine, SchedulerOptions{Workers: 1, PerAnalystInFlight: 2})
	ts := httptest.NewServer(NewAPI(engine, sched))
	defer ts.Close()

	// Two in-flight jobs fill bob's limit; the third is refused 429.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/queries", submitRequest{Analyst: "bob", Query: slowQuery})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/queries", submitRequest{Analyst: "bob", Query: slowQuery})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	// Another analyst is not affected by bob's limit.
	resp = postJSON(t, ts.URL+"/v1/queries", submitRequest{Analyst: "carol", Query: testQuery})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("carol's submit status %d", resp.StatusCode)
	}
	resp.Body.Close()

	close(gate)
	sched.Close()
}

func TestHTTPBadRequests(t *testing.T) {
	engine := newTestEngine(t)
	sched := NewScheduler(engine, SchedulerOptions{Workers: 1})
	defer sched.Close()
	ts := httptest.NewServer(NewAPI(engine, sched))
	defer ts.Close()

	// Syntax errors are rejected synchronously.
	resp := postJSON(t, ts.URL+"/v1/queries", submitRequest{Analyst: "alice", Query: "SPLIT nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Missing analyst name.
	resp = postJSON(t, ts.URL+"/v1/queries", submitRequest{Query: testQuery})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing analyst status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown job.
	r, err := http.Get(ts.URL + "/v1/queries/q-999999")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", r.StatusCode)
	}
	r.Body.Close()

	// Unknown camera budget.
	r, err = http.Get(ts.URL + "/v1/cameras/nope/budget")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown camera status %d, want 404", r.StatusCode)
	}
	r.Body.Close()
}

func TestHTTPCamerasBudgetStats(t *testing.T) {
	engine := newTestEngine(t)
	sched := NewScheduler(engine, SchedulerOptions{Workers: 1})
	defer sched.Close()
	ts := httptest.NewServer(NewAPI(engine, sched))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/cameras")
	if err != nil {
		t.Fatal(err)
	}
	cams := decode[[]cameraJSON](t, resp)
	if len(cams) != 1 || cams[0].Name != "campus" || cams[0].Epsilon != 100 {
		t.Fatalf("cameras = %+v", cams)
	}

	// Budget starts full, drops after a query.
	resp, err = http.Get(ts.URL + "/v1/cameras/campus/budget?frame=100")
	if err != nil {
		t.Fatal(err)
	}
	before := decode[map[string]any](t, resp)
	if before["remaining"].(float64) != 100 {
		t.Fatalf("fresh budget = %v, want 100", before["remaining"])
	}

	id, err := sched.Submit("alice", testQuery)
	if err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, id)

	resp, err = http.Get(ts.URL + "/v1/cameras/campus/budget?frame=100")
	if err != nil {
		t.Fatal(err)
	}
	after := decode[map[string]any](t, resp)
	if after["remaining"].(float64) >= 100 {
		t.Fatalf("budget not consumed: %v", after["remaining"])
	}

	resp, err = http.Get(ts.URL + "/v1/executables")
	if err != nil {
		t.Fatal(err)
	}
	execs := decode[[]string](t, resp)
	if len(execs) != 1 || execs[0] != "headcount" {
		t.Fatalf("executables = %v", execs)
	}
}

// samples parses an exposition's sample lines into "name{labels}" →
// value.
func samples(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// statsFamilyPrefix is the family-name prefix of each /v1/stats
// counter group.
var statsFamilyPrefix = map[string]string{
	"chunk_cache":  "privid_chunk_cache_",
	"singleflight": "privid_chunk_singleflight_",
	"partial_agg":  "privid_partial_agg_",
	"plan_memo":    "privid_plan_memo_",
}

// TestStatsMatchesExposition pins that /v1/stats and /v1/metrics are
// one set of numbers for every engine shape: each counter field that
// has a family equals that family's sample, the per-camera remaining
// equals its gauge, and each scheduler family equals its Stats field.
func TestStatsMatchesExposition(t *testing.T) {
	for _, shape := range wireShapes {
		t.Run(shape.name, func(t *testing.T) {
			_, sched, url := shapeStack(t, shape.opts(t.TempDir()), shape.cache)
			resp, err := http.Get(url + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			raw := decode[map[string]json.RawMessage](t, resp)
			var wireSched Stats
			var cams []core.CameraBudgetStatus
			if err := json.Unmarshal(raw["scheduler"], &wireSched); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw["cameras"], &cams); err != nil {
				t.Fatal(err)
			}
			groups := map[string]map[string]float64{}
			for g := range statsFamilyPrefix {
				var fields map[string]float64
				if err := json.Unmarshal(raw[g], &fields); err != nil || len(fields) == 0 {
					t.Fatalf("stats group %q: %v %s", g, err, raw[g])
				}
				groups[g] = fields
			}
			got := samples(t, url)

			var unexported []string
			for g, fields := range groups {
				for k, v := range fields {
					name := statsFamilyPrefix[g] + strings.Replace(k, "cached_chunks", "chunks_cached", 1)
					want, ok := got[name]
					if !ok {
						want, ok = got[name+"_total"]
					}
					if !ok {
						unexported = append(unexported, g+"."+k)
						continue
					}
					if v != want {
						t.Errorf("%s.%s = %v, family %s says %v", g, k, v, name, want)
					}
				}
			}
			if cc := groups["chunk_cache"]; cc["hits"]+cc["misses"] > 0 && cc["hit_rate"] != cc["hits"]/(cc["hits"]+cc["misses"]) {
				t.Errorf("hit_rate %v != hits/(hits+misses) from %+v", cc["hit_rate"], cc)
			}
			// The disk shape registers every family, so only the derived
			// hit_rate may lack one there.
			if sort.Strings(unexported); shape.name == "ram_and_disk" && strings.Join(unexported, ",") != "chunk_cache.hit_rate" {
				t.Errorf("stats fields without a family: %v", unexported)
			}
			if shape.name == "ram_and_disk" && groups["chunk_cache"]["disk_hits"] == 0 {
				t.Error("workload produced no disk hit")
			}
			if shape.cache && groups["singleflight"]["followers"] == 0 {
				t.Error("workload produced no singleflight follower")
			}

			for _, c := range cams {
				if g := got[`privid_camera_epsilon_remaining{camera="`+c.Name+`"}`]; g != c.Remaining {
					t.Errorf("camera %s remaining %v, gauge %v", c.Name, c.Remaining, g)
				}
			}
			st := sched.Stats()
			if wireSched != st {
				t.Errorf("wire scheduler %+v, Stats() %+v", wireSched, st)
			}
			for name, want := range map[string]int64{
				"privid_scheduler_queue_depth":          int64(st.Queued),
				"privid_scheduler_workers":              int64(st.Workers),
				"privid_scheduler_running":              int64(st.Running),
				"privid_scheduler_recovered_jobs_total": st.Recovered,
				"privid_slow_queries_total":             st.SlowQueries,
				"privid_parse_cache_hits_total":         st.ParseCacheHits,
				"privid_parse_cache_misses_total":       st.ParseCacheMisses,
			} {
				if got[name] != float64(want) {
					t.Errorf("%s = %v, Stats() says %v", name, got[name], want)
				}
			}
		})
	}

	// The groups come from the engine's table, not its registry.
	bare, full := core.New(core.Options{DisableMetrics: true}).StatsGroups(), core.New(core.Options{}).StatsGroups()
	if len(bare) != len(full) {
		t.Fatalf("DisableMetrics engine renders %d stats groups, want %d", len(bare), len(full))
	}
	for g, fields := range full {
		if len(bare[g]) != len(fields) {
			t.Errorf("DisableMetrics group %s has %d fields, want %d", g, len(bare[g]), len(fields))
		}
	}
}

// Terminal jobs beyond MaxFinishedJobs are pruned oldest-first so a
// long-running server's job table stays bounded.
func TestSchedulerPrunesFinishedJobs(t *testing.T) {
	engine := newTestEngineWith(t, core.Options{Seed: 1, MaxFinishedJobs: 3})
	sched := NewScheduler(engine, SchedulerOptions{Workers: 1, PerAnalystInFlight: 100})
	defer sched.Close()

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		id, err := sched.Submit("alice", testQuery)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Pruning removes done jobs from the table, so wait for the queue
	// to drain rather than for a done-count.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := sched.Stats()
		if st.Queued+st.Running == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(sched.Jobs("")); got != 3 {
		t.Fatalf("retained %d jobs, want 3", got)
	}
	// The newest three survive, the oldest three are gone.
	for _, id := range ids[:3] {
		if _, ok := sched.Job(id); ok {
			t.Fatalf("job %s should have been pruned", id)
		}
	}
	for _, id := range ids[3:] {
		info, ok := sched.Job(id)
		if !ok || info.State != JobDone {
			t.Fatalf("job %s missing or not done: %+v", id, info)
		}
	}
}

func TestSchedulerCloseDrains(t *testing.T) {
	engine := newTestEngine(t)
	sched := NewScheduler(engine, SchedulerOptions{Workers: 2})
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		id, err := sched.Submit("alice", testQuery)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sched.Close()
	for _, id := range ids {
		info, ok := sched.Job(id)
		if !ok || !info.Finished() {
			t.Fatalf("job %s not finished after Close: %+v", id, info)
		}
	}
	if _, err := sched.Submit("alice", testQuery); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}
