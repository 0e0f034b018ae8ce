// Package privid is a from-scratch Go implementation of Privid
// (NSDI 2022): a privacy-preserving video analytics system that
// answers analyst-written aggregation queries over video while
// guaranteeing (ρ, K, ε)-event-duration privacy — every event visible
// for at most K segments of at most ρ seconds each is protected with
// ε-differential privacy, without ever needing to detect or locate
// private objects in the video.
//
// # Architecture
//
// Queries follow the paper's split-process-aggregate structure:
//
//   - SPLIT divides a camera's stream into temporal chunks (optionally
//     masked and/or spatially split into regions),
//   - PROCESS runs the analyst's untrusted per-chunk code in an
//     isolation harness, producing an untrusted intermediate table,
//   - SELECT aggregates the table with a SQL-like statement; Privid
//     bounds the aggregate's sensitivity from trusted metadata alone
//     and adds Laplace noise before releasing the result.
//
// A per-frame privacy budget (with a ρ-frame admission margin) makes
// the guarantee hold across adaptive multi-query workloads.
//
// # Quick start
//
//	engine := privid.New(privid.Options{Seed: 1})
//	engine.RegisterCamera(privid.CameraConfig{
//	    Name:    "camA",
//	    Source:  privid.NewSceneCamera("camA", privid.CampusProfile(), 1, 12*time.Hour),
//	    Policy:  privid.Policy{Rho: 60 * time.Second, K: 2},
//	    Epsilon: 10,
//	})
//	engine.Registry().Register("count_people", myProcessFunc)
//	prog, _ := privid.Parse(`
//	    SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:00pm
//	        BY TIME 30sec STRIDE 0sec INTO chunks;
//	    PROCESS chunks USING count_people TIMEOUT 5sec PRODUCING 20 ROWS
//	        WITH SCHEMA (one:NUMBER=0) INTO t;
//	    SELECT COUNT(*) FROM t;`)
//	res, _ := engine.Execute(prog)
//
// The synthetic scene simulator, CV substrate (detector + tracker),
// masking toolchain (Algorithm 2) and the Porto-taxi fleet substrate
// used by the paper's evaluation are all included; see the examples/
// directory and DESIGN.md.
package privid

import (
	"net/http"
	"time"

	"privid/internal/cache"
	"privid/internal/core"
	"privid/internal/cv"
	"privid/internal/geom"
	"privid/internal/mask"
	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/region"
	"privid/internal/sandbox"
	"privid/internal/scene"
	"privid/internal/server"
	"privid/internal/table"
	"privid/internal/taxi"
	"privid/internal/video"
	"privid/internal/vtime"
)

// Core engine types.
type (
	// Engine executes Privid queries against registered cameras.
	Engine = core.Engine
	// Options configure an Engine.
	Options = core.Options
	// CameraConfig registers one camera: its source, (ρ, K) policy,
	// per-frame budget ε, optional mask policy map and region schemes.
	CameraConfig = core.CameraConfig
	// Result is the outcome of executing a query program.
	Result = core.Result
	// ReleaseResult is one noised data release.
	ReleaseResult = core.ReleaseResult
	// CameraBudget is one camera's share of a query's privacy cost
	// (Result.Cameras): what the query charged that camera's ledger
	// and the worst-case budget left on the charged frames.
	CameraBudget = core.CameraBudget
	// AuditEntry is one entry of the owner's query audit log.
	AuditEntry = core.AuditEntry
	// Policy is the (ρ, K) event-duration bound of §5.
	Policy = policy.Policy
)

// Query language types.
type (
	// Program is a parsed SPLIT/PROCESS/SELECT query.
	Program = query.Program
)

// Analyst processing types.
type (
	// ProcessFunc is the analyst's per-chunk processing code.
	ProcessFunc = sandbox.ProcessFunc
	// Chunk is the video slice a ProcessFunc sees.
	Chunk = video.Chunk
	// Frame is one video frame: the set of visible observations.
	Frame = video.Frame
	// Observation is one visible object in one frame.
	Observation = video.Observation
	// Row is one intermediate-table row.
	Row = table.Row
	// Value is a typed STRING/NUMBER scalar.
	Value = table.Value
)

// Video substrate types.
type (
	// Source is a readable camera stream.
	Source = video.Source
	// Scene is a synthetic ground-truth world.
	Scene = scene.Scene
	// Profile parameterizes synthetic scene generation.
	Profile = scene.Profile
	// FrameRate is frames per second.
	FrameRate = vtime.FrameRate
)

// Masking and spatial-splitting types.
type (
	// Mask is a published grid-cell mask (§7.1).
	Mask = mask.Mask
	// PolicyMap is the published mask → (ρ, K) ladder (Appendix F.2).
	PolicyMap = mask.PolicyMap
	// PolicyEntry is one entry of a PolicyMap.
	PolicyEntry = mask.PolicyEntry
	// Scheme is a spatial-splitting scheme (§7.2).
	Scheme = region.Scheme
	// GridScheme is the Grid Split extension (§7.2 future work):
	// uniform-grid splitting with any chunk size, with the sensitivity
	// multiplier derived from object-size and speed bounds.
	GridScheme = region.GridScheme
	// Rect is an axis-aligned pixel rectangle.
	Rect = geom.Rect
	// Grid divides a frame into fixed boxes for masking.
	Grid = geom.Grid
)

// Serving-layer types (see internal/server and DESIGN.md §"Query
// service layer").
type (
	// QueryScheduler runs analyst queries asynchronously on a worker
	// pool over one engine: submit → job ID → poll.
	QueryScheduler = server.Scheduler
	// SchedulerOptions configure a QueryScheduler (worker-pool size,
	// per-analyst in-flight limit, queue depth).
	SchedulerOptions = server.SchedulerOptions
	// JobInfo is a snapshot of one submitted query's state.
	JobInfo = server.JobInfo
	// JobState is a job lifecycle state (queued/running/done/failed).
	JobState = server.JobState
	// CameraInfo describes one registered camera for deployment
	// listings.
	CameraInfo = core.CameraInfo
	// CacheStats is a snapshot of the engine's chunk-result cache
	// counters (Engine.CacheStats).
	CacheStats = cache.Stats
	// FlightStats is a snapshot of the chunk-execution singleflight
	// counters — leaders, followers, handoffs, timeouts, currently
	// waiting (Engine.FlightStats).
	FlightStats = cache.FlightStats
	// PartialAggStats is a snapshot of the aggregation-pushdown
	// counters — plans, declines, per-chunk folds, merges, and
	// partial-state cache traffic (Engine.PartialStats).
	PartialAggStats = core.PartialAggStats
)

// Observability types (see internal/obs and DESIGN.md
// §"Observability"). Everything here carries counts, durations and ε
// amounts only — never noised values or row contents.
type (
	// MetricsRegistry holds the deployment's metric families
	// (Engine.Metrics), rendered in Prometheus text format at
	// GET /v1/metrics.
	MetricsRegistry = obs.Registry
	// QueryTrace is one query execution's live span tree
	// (Engine.ExecuteTraced, which runs an Engine.Prepare'd program and
	// tags its WAL charge records; Engine.Execute is the untagged,
	// untraced form).
	QueryTrace = obs.Trace
	// SpanTree is the serialized form of a trace: the wire format of
	// GET /v1/queries/{id}/trace. Traces stay in memory; job records
	// carry none.
	SpanTree = obs.SpanTree
	// SlowEntry is one structured slow-query log record
	// (SchedulerOptions.SlowQueryLog).
	SlowEntry = obs.SlowEntry
	// CameraBudgetStatus is one camera's standing budget summary
	// (Engine.CameraBudgets, the stats endpoint's cameras array).
	CameraBudgetStatus = core.CameraBudgetStatus
)

// NewScheduler starts an asynchronous query scheduler over an engine.
// Call Close to drain it.
func NewScheduler(e *Engine, opts SchedulerOptions) *QueryScheduler {
	return server.NewScheduler(e, opts)
}

// NewAPIHandler returns the HTTP/JSON API serving an engine through a
// scheduler: query submit/status/result, camera listing, budget
// inspection, the audit log, and cache/scheduler stats.
func NewAPIHandler(e *Engine, s *QueryScheduler) http.Handler {
	return server.NewAPI(e, s)
}

// StandingQuery is a long-running query over live video: each Advance
// releases (and pays budget for) exactly the buckets whose time span
// has fully elapsed — the streaming semantics of the paper's
// Appendix D.
type StandingQuery = core.StandingQuery

// New returns an engine with no cameras registered. It panics when
// Options.StateDir recovery fails; use Open to handle that gracefully.
func New(opts Options) *Engine { return core.New(opts) }

// Open returns an engine with no cameras registered, recovering the
// durable privacy ledger from Options.StateDir when set: per-camera
// spent budgets, the audit log and terminal job records all survive
// restarts, and every new charge is fsynced to the write-ahead log
// before its noised result is released. Call Engine.Close on shutdown
// to compact the log into a snapshot. See DESIGN.md §"Durability & the
// privacy ledger".
func Open(opts Options) (*Engine, error) { return core.Open(opts) }

// StateInfo describes the engine's durable state layer
// (Engine.StateInfo, the server's /v1/state endpoint).
type StateInfo = core.StateInfo

// Parse parses and statically validates a query program.
func Parse(src string) (*Program, error) { return query.Parse(src) }

// N returns a NUMBER value for intermediate-table rows.
func N(v float64) Value { return table.N(v) }

// S returns a STRING value for intermediate-table rows.
func S(v string) Value { return table.S(v) }

// NewSceneCamera generates a deterministic synthetic scene from a
// profile and wraps it as a camera source. The stream starts at the
// profile-independent anchor (6:00 am, matching the paper's capture
// window).
func NewSceneCamera(name string, p Profile, seed int64, dur time.Duration) Source {
	return scene.Generate(p, seed, dur).Source(name)
}

// GenerateScene generates the deterministic synthetic scene a
// NewSceneCamera with the same arguments replays — the owner-side view
// for calibration (duration estimation, mask construction).
func GenerateScene(p Profile, seed int64, dur time.Duration) *Scene {
	return scene.Generate(p, seed, dur)
}

// Profiles of the paper's evaluation videos.

// CampusProfile is the campus walkway camera (people, benches).
func CampusProfile() Profile { return scene.Campus() }

// HighwayProfile is the two-direction highway camera (cars, shoulder
// parking).
func HighwayProfile() Profile { return scene.Highway() }

// UrbanProfile is the downtown intersection camera (crowds, four
// crosswalks).
func UrbanProfile() Profile { return scene.Urban() }

// AllProfiles returns every built-in profile by name, including the
// seven extended-dataset (BlazeIt/MIRIS) profiles.
func AllProfiles() map[string]Profile { return scene.Profiles() }

// TaxiFleet exposes the Porto-style taxi substrate.
type TaxiFleet = taxi.Fleet

// TaxiConfig parameterizes the fleet.
type TaxiConfig = taxi.Config

// NewTaxiFleet builds the multi-camera taxi fleet simulator used by
// the paper's Case 2 queries.
func NewTaxiFleet(cfg TaxiConfig) *TaxiFleet { return taxi.NewFleet(cfg) }

// DefaultTaxiConfig mirrors the paper's dataset dimensions.
func DefaultTaxiConfig() TaxiConfig { return taxi.DefaultConfig() }

// Owner-side tooling.

// EstimateMaxDuration runs the owner-side CV pipeline (simulated
// detector + SORT-style tracker) over a source interval and returns
// the estimated maximum duration any individual is visible, in
// seconds — the value used to choose ρ (§5.2, Table 1).
func EstimateMaxDuration(src Source, p Profile, seed int64) float64 {
	info := src.Info()
	rep := cv.EstimateDurations(src, info.Bounds(), cv.ParamsFor(p), cv.OwnerTracker(), seed, 1)
	return rep.MaxSeconds
}

// TuneTracker runs Appendix A's hyperparameter search: it evaluates a
// grid of tracker configurations over the source and returns the one
// whose duration distribution best matches the owner's annotated
// ground-truth durations (seconds), together with its max-duration
// estimate.
func TuneTracker(src Source, p Profile, gtDurationsSec []float64, seed int64) (maxSeconds, distance float64) {
	res := cv.Tune(src, src.Info().Bounds(), cv.ParamsFor(p), cv.DefaultTuneGrid(), gtDurationsSec, seed)
	if len(res) == 0 {
		return 0, 1
	}
	return res[0].MaxSeconds, res[0].Distance
}

// BuildMaskPolicyMap runs Algorithm 2 over a historical scene and
// returns the mask → policy ladder the owner publishes. factors are
// persistence-reduction targets (1 = unmasked).
func BuildMaskPolicyMap(camera string, s *Scene, k int, factors []float64) *PolicyMap {
	grid := geom.NewGrid(s.W, s.H, 10, 10)
	stride := int64(s.FPS) // sample once per second
	pres := scene.CollectPresence(s, grid, s.Bounds(), stride)
	return mask.BuildPolicyMap(camera, pres, grid, s.FPS, stride, k, factors)
}
