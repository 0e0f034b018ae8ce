// Package harness spins up a complete Privid serving stack — engine,
// scheduler, HTTP API — from one call, for end-to-end tests. It
// registers a deterministic synthetic camera and a trivial executable
// so tests exercise the real submit→poll→result path (admission, WAL
// durability, noise, audit) without caring about scene content.
//
//	h := harness.Start(t, harness.Config{})
//	job := h.SubmitWait("alice", harness.CountQuery(0, 2, 0))
//
// With Config.StateDir the stack is durable; Restart simulates a
// process restart against the same state directory.
package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"privid/internal/core"
	"privid/internal/geom"
	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/sandbox"
	"privid/internal/scene"
	"privid/internal/server"
	"privid/internal/store"
	"privid/internal/table"
	"privid/internal/video"
)

// Camera is the test camera's name.
const Camera = "cam"

// TB is the slice of testing.TB the harness needs. testing.T and
// testing.B satisfy it; so does internal/sim's runtime reporter, which
// lets cmd/privid-sim drive a stack outside `go test`.
type TB interface {
	Helper()
	Cleanup(func())
	Logf(format string, args ...any)
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Config parameterizes the stack. The zero value is a fast in-memory
// deployment.
type Config struct {
	// StateDir enables the durable ledger ("" = in-memory).
	StateDir string
	// RepairState truncates a torn WAL on open (core.Options).
	RepairState bool
	// Store injects a store directly (fault tests); overrides
	// StateDir.
	Store store.Store
	// Epsilon is the camera's per-frame budget. 0 uses 10.
	Epsilon float64
	// DefaultQueryEpsilon is the engine's per-query default. 0 uses
	// the engine default (1).
	DefaultQueryEpsilon float64
	// Minutes is the camera stream length. 0 uses 10.
	Minutes int
	// SnapshotEvery is the WAL compaction threshold (0 = store
	// default, negative disables).
	SnapshotEvery int
	// Scheduler overrides scheduler options (zero value = defaults).
	Scheduler server.SchedulerOptions
	// Seed drives the noise sampler. 0 uses 1.
	Seed int64
	// Cameras is the number of registered test cameras (0 = 1). The
	// first is named Camera; extras are named CameraName(1), ... and
	// share the same scene shape, policy and Epsilon.
	Cameras int
	// ChunkCacheBytes configures the RAM chunk cache (0 = engine
	// default, negative disables the RAM tier).
	ChunkCacheBytes int64
	// DiskCacheDir enables the persistent tier-2 chunk cache ("" =
	// RAM-only). The directory outlives Restart, so memoized chunk
	// results survive a simulated process restart.
	DiskCacheDir string
	// DiskCacheBytes bounds the tier-2 cache (0 = engine default).
	// Tiny values induce cache thrash (chaos scenarios).
	DiskCacheBytes int64
	// Evaluation runs the engine in evaluation mode: every release
	// additionally reports its pre-noise Raw value (over HTTP too),
	// which the sim harness's ground-truth invariant depends on.
	Evaluation bool
	// Parallelism bounds concurrent sandbox executions engine-wide
	// (0 = engine default).
	Parallelism int
	// Metrics supplies a shared obs registry. nil (the default) gives
	// every boot its own fresh registry — stacks are isolated from
	// each other and from earlier incarnations, so parallel scenarios
	// can assert exact counter values. Set it to share one registry
	// across Restart (to watch counters accumulate over a stack's
	// lifetimes).
	Metrics *obs.Registry
	// WrapWALFile plumbs through to core.Options.WrapWALFile: the
	// chaos layer installs a storetest.FaultyFile here to tear WAL
	// commits under load. Applied on every boot (and WAL compaction).
	WrapWALFile func(store.File) store.File
	// CameraConfigs, when non-empty, replaces the default testScene
	// cameras entirely — the sim fleet registers its own sources,
	// policies and budgets. Cameras/Epsilon/Minutes are ignored.
	CameraConfigs []core.CameraConfig
	// Executables registers extra named ProcessFuncs alongside the
	// default "one" (whose name is reserved).
	Executables map[string]sandbox.ProcessFunc
	// WaitTimeout bounds Wait's polling (0 = 30s). Soak runs under
	// -race on loaded machines may need more.
	WaitTimeout time.Duration
	// BeforeBoot runs before every engine open — including the first —
	// with no stack running. The chaos layer corrupts disk-cache
	// segments here, between incarnations.
	BeforeBoot func()
}

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 10
	}
	if c.Minutes == 0 {
		c.Minutes = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cameras == 0 {
		c.Cameras = 1
	}
	return c
}

// CameraName returns the i-th test camera's name; index 0 is Camera.
func CameraName(i int) string {
	if i == 0 {
		return Camera
	}
	return fmt.Sprintf("cam%d", i+1)
}

// H is a running stack. Engine, Sched and Srv are replaced by Restart.
type H struct {
	T      TB
	Cfg    Config
	Engine *core.Engine
	Sched  *server.Scheduler
	Srv    *httptest.Server

	stopped bool
	// reg is this incarnation's obs registry (Cfg.Metrics, or a fresh
	// one per boot when nil).
	reg *obs.Registry
}

// Registry returns the running stack's isolated obs registry.
func (h *H) Registry() *obs.Registry { return h.reg }

// streamStart anchors the test camera (matching the repo's test
// convention: the paper's 6:00 am capture window).
var streamStart = time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC)

// testScene builds a deterministic scene: one person per minute, each
// visible 20 s, walking across the frame at 10 fps.
func testScene(minutes int) *scene.Scene {
	s := &scene.Scene{
		Name: Camera, W: 1000, H: 500, FPS: 10,
		Start:  streamStart,
		Frames: int64(minutes) * 600,
	}
	for i := 0; i < minutes; i++ {
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

// one is the trivial executable: one row per chunk, value 1.
func one(*video.Chunk) []table.Row { return []table.Row{{table.N(1)}} }

// Start boots the stack and registers cleanup. Failures are fatal on
// t. The returned handle's helpers drive the stack over real HTTP.
func Start(t TB, cfg Config) *H {
	t.Helper()
	cfg = cfg.withDefaults()
	h := &H{T: t, Cfg: cfg}
	h.boot()
	t.Cleanup(h.Stop)
	return h
}

// boot builds engine, scheduler and HTTP server from h.Cfg.
func (h *H) boot() {
	h.T.Helper()
	if h.Cfg.BeforeBoot != nil {
		h.Cfg.BeforeBoot()
	}
	h.reg = h.Cfg.Metrics
	if h.reg == nil {
		// Isolated per-boot registry: parallel stacks (sim scenarios,
		// obs e2e tests) never see each other's counters.
		h.reg = obs.NewRegistry()
	}
	engine, err := core.Open(core.Options{
		Seed:                h.Cfg.Seed,
		DefaultQueryEpsilon: h.Cfg.DefaultQueryEpsilon,
		Evaluation:          h.Cfg.Evaluation,
		Parallelism:         h.Cfg.Parallelism,
		StateDir:            h.Cfg.StateDir,
		RepairState:         h.Cfg.RepairState,
		SnapshotEvery:       h.Cfg.SnapshotEvery,
		Store:               h.Cfg.Store,
		ChunkCacheBytes:     h.Cfg.ChunkCacheBytes,
		DiskCacheDir:        h.Cfg.DiskCacheDir,
		DiskCacheBytes:      h.Cfg.DiskCacheBytes,
		WrapWALFile:         h.Cfg.WrapWALFile,
		Metrics:             h.reg,
	})
	if err != nil {
		h.T.Fatalf("harness: open engine: %v", err)
	}
	cams := h.Cfg.CameraConfigs
	if len(cams) == 0 {
		for i := 0; i < h.Cfg.Cameras; i++ {
			name := CameraName(i)
			cams = append(cams, core.CameraConfig{
				Name:    name,
				Source:  testScene(h.Cfg.Minutes).Source(name),
				Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
				Epsilon: h.Cfg.Epsilon,
			})
		}
	}
	for _, cc := range cams {
		if err := engine.RegisterCamera(cc); err != nil {
			h.T.Fatalf("harness: register camera %s: %v", cc.Name, err)
		}
	}
	if err := engine.Registry().Register("one", one); err != nil {
		h.T.Fatalf("harness: register executable: %v", err)
	}
	for name, fn := range h.Cfg.Executables {
		if err := engine.Registry().Register(name, fn); err != nil {
			h.T.Fatalf("harness: register executable %s: %v", name, err)
		}
	}
	h.Engine = engine
	h.Sched = server.NewScheduler(engine, h.Cfg.Scheduler)
	h.Srv = httptest.NewServer(server.NewAPI(engine, h.Sched))
	h.stopped = false
}

// Stop shuts the stack down gracefully: HTTP first, then the
// scheduler (draining jobs), then the engine (final snapshot).
// Idempotent.
func (h *H) Stop() {
	if h.stopped {
		return
	}
	h.stopped = true
	h.Srv.Close()
	h.Sched.Close()
	if err := h.Engine.Close(); err != nil {
		h.T.Errorf("harness: engine close: %v", err)
	}
}

// Restart simulates a process restart: graceful stop, then boot a
// fresh stack from the same Config (and thus the same StateDir).
func (h *H) Restart() {
	h.T.Helper()
	h.Stop()
	h.boot()
}

// Crash simulates an abrupt process death and restart: the HTTP
// frontend closes and the scheduler drains its in-flight jobs (whose
// WAL commits fail if the caller poisoned a chaos FaultyFile first),
// but the engine is abandoned WITHOUT Close — no final snapshot, no
// graceful WAL close, exactly like a killed process — and a fresh
// stack boots from the same state directory with repair forced (a
// torn tail must not block restart). In-memory stacks just restart.
func (h *H) Crash() {
	h.T.Helper()
	if !h.stopped {
		h.Srv.Close()
		h.Sched.Close()
		// The abandoned engine's file handles leak until process
		// exit, as they would in a real crash. The drained scheduler
		// guarantees it never writes again, so the reopened WAL owns
		// the tail.
		h.stopped = true
	}
	if h.Cfg.StateDir != "" {
		h.Cfg.RepairState = true
	}
	h.boot()
}

// tsLiteral renders a minute offset from the stream start as a query
// timestamp literal (MM-DD-YYYY/H:MMam).
func tsLiteral(minOffset int) string {
	ts := streamStart.Add(time.Duration(minOffset) * time.Minute)
	hour := ts.Hour() % 12
	if hour == 0 {
		hour = 12
	}
	ampm := "am"
	if ts.Hour() >= 12 {
		ampm = "pm"
	}
	return fmt.Sprintf("%02d-%02d-%d/%d:%02d%s",
		int(ts.Month()), ts.Day(), ts.Year(), hour, ts.Minute(), ampm)
}

// CountQuery returns a COUNT(*) program over [beginMin, endMin)
// minutes of the test camera in 30 s chunks, consuming eps (0 = the
// engine's per-query default).
func CountQuery(beginMin, endMin int, eps float64) string {
	consuming := ""
	if eps > 0 {
		consuming = fmt.Sprintf(" CONSUMING %g", eps)
	}
	return fmt.Sprintf(`
SPLIT %s BEGIN %s END %s BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING one TIMEOUT 5sec PRODUCING 2 ROWS
  WITH SCHEMA (v:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t%s;`, Camera, tsLiteral(beginMin), tsLiteral(endMin), consuming)
}

// --- HTTP client helpers (wire structs mirror internal/server) ---

// Release is one noised release as served over HTTP.
type Release struct {
	Desc        string  `json:"desc"`
	Value       float64 `json:"value"`
	Epsilon     float64 `json:"epsilon"`
	Sensitivity float64 `json:"sensitivity"`
	NoiseScale  float64 `json:"noise_scale"`
	// Raw is the pre-noise value, served only when the stack runs
	// with Config.Evaluation (the sim ground-truth invariant).
	Raw    float64 `json:"raw"`
	RawSet bool    `json:"raw_set"`
	// Begin/End are the release's wall-clock span; cameras are
	// charged over their queried span clipped to it.
	Begin time.Time `json:"begin"`
	End   time.Time `json:"end"`
}

// CameraBudget is one camera's budget impact as served over HTTP.
type CameraBudget struct {
	Camera       string  `json:"camera"`
	EpsilonSpent float64 `json:"epsilon_spent"`
	Remaining    float64 `json:"remaining"`
}

// Result is a finished query's outcome as served over HTTP.
type Result struct {
	Releases     []Release      `json:"releases"`
	EpsilonSpent float64        `json:"epsilon_spent"`
	Cameras      []CameraBudget `json:"cameras"`
}

// Job is a job snapshot as served over HTTP.
type Job struct {
	ID      string  `json:"id"`
	Analyst string  `json:"analyst"`
	State   string  `json:"state"`
	Error   string  `json:"error,omitempty"`
	Result  *Result `json:"result,omitempty"`
}

// AuditEntry is one audit-log entry as served over HTTP.
type AuditEntry struct {
	Cameras      []string `json:"cameras"`
	Releases     int      `json:"releases"`
	EpsilonSpent float64  `json:"epsilon_spent"`
	Denied       bool     `json:"denied,omitempty"`
	Reason       string   `json:"reason,omitempty"`
}

// get decodes a GET endpoint into out, asserting the status code.
func (h *H) get(path string, wantStatus int, out any) {
	h.T.Helper()
	resp, err := http.Get(h.Srv.URL + path)
	if err != nil {
		h.T.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		h.T.Fatalf("GET %s: status %d, want %d (body: %s)", path, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			h.T.Fatalf("GET %s: decode: %v (body: %s)", path, err, body)
		}
	}
}

// Submit posts a query for analyst and returns the job ID (fatal on
// refusal).
func (h *H) Submit(analyst, query string) string {
	h.T.Helper()
	id, status, errMsg := h.TrySubmit(analyst, query)
	if status != http.StatusAccepted {
		h.T.Fatalf("submit: status %d: %s", status, errMsg)
	}
	return id
}

// TrySubmit posts a query and returns (jobID, HTTP status, error
// message) without failing the test, for tests probing refusals.
func (h *H) TrySubmit(analyst, query string) (id string, status int, errMsg string) {
	h.T.Helper()
	body, _ := json.Marshal(map[string]string{"analyst": analyst, "query": query})
	resp, err := http.Post(h.Srv.URL+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		h.T.Fatalf("POST /v1/queries: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var decoded struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	_ = json.Unmarshal(raw, &decoded)
	return decoded.ID, resp.StatusCode, decoded.Error
}

// Wait polls a job until it reaches a terminal state (or times out).
func (h *H) Wait(id string) Job {
	h.T.Helper()
	timeout := h.Cfg.WaitTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		var j Job
		h.get("/v1/queries/"+id, http.StatusOK, &j)
		if j.State == "done" || j.State == "failed" {
			return j
		}
		if time.Now().After(deadline) {
			h.T.Fatalf("job %s stuck in state %s", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// SubmitWait submits a query and waits for its terminal snapshot.
func (h *H) SubmitWait(analyst, query string) Job {
	h.T.Helper()
	return h.Wait(h.Submit(analyst, query))
}

// Job fetches one job snapshot, reporting whether it exists.
func (h *H) Job(id string) (Job, bool) {
	h.T.Helper()
	resp, err := http.Get(h.Srv.URL + "/v1/queries/" + id)
	if err != nil {
		h.T.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return Job{}, false
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		h.T.Fatalf("decode job: %v", err)
	}
	return j, true
}

// Budget returns the default camera's remaining budget at a frame,
// over HTTP.
func (h *H) Budget(frame int64) float64 {
	h.T.Helper()
	return h.BudgetFor(Camera, frame)
}

// BudgetFor returns one camera's remaining budget at a frame, over
// HTTP.
func (h *H) BudgetFor(camera string, frame int64) float64 {
	h.T.Helper()
	var out struct {
		Remaining float64 `json:"remaining"`
	}
	h.get(fmt.Sprintf("/v1/cameras/%s/budget?frame=%d", camera, frame), http.StatusOK, &out)
	return out.Remaining
}

// Audit fetches the owner's audit log over HTTP.
func (h *H) Audit() []AuditEntry {
	h.T.Helper()
	var out []AuditEntry
	h.get("/v1/audit", http.StatusOK, &out)
	return out
}

// State fetches the durable-store status over HTTP.
func (h *H) State() core.StateInfo {
	h.T.Helper()
	var out core.StateInfo
	h.get("/v1/state", http.StatusOK, &out)
	return out
}

// Metrics fetches the Prometheus text exposition over HTTP, asserting
// status and content type.
func (h *H) Metrics() string {
	h.T.Helper()
	resp, err := http.Get(h.Srv.URL + "/v1/metrics")
	if err != nil {
		h.T.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		h.T.Fatalf("GET /v1/metrics: status %d (body: %s)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		h.T.Fatalf("GET /v1/metrics: content type %q, want Prometheus text 0.0.4", ct)
	}
	return string(body)
}

// Trace fetches a terminal job's span tree over HTTP.
func (h *H) Trace(id string) obs.SpanTree {
	h.T.Helper()
	var out obs.SpanTree
	h.get("/v1/queries/"+id+"/trace", http.StatusOK, &out)
	return out
}

// Stats fetches the stats endpoint: scheduler load, per-camera budget
// standing, and the engine's counter groups by name.
func (h *H) Stats() (sched server.Stats, cams []core.CameraBudgetStatus, groups map[string]map[string]float64) {
	h.T.Helper()
	var raw map[string]json.RawMessage
	h.get("/v1/stats", http.StatusOK, &raw)
	groups = map[string]map[string]float64{}
	for name, msg := range raw {
		var err error
		switch name {
		case "scheduler":
			err = json.Unmarshal(msg, &sched)
		case "cameras":
			err = json.Unmarshal(msg, &cams)
		default:
			var g map[string]float64
			err = json.Unmarshal(msg, &g)
			groups[name] = g
		}
		if err != nil {
			h.T.Fatalf("GET /v1/stats: decode %q: %v", name, err)
		}
	}
	return sched, cams, groups
}
