// Package core is the Privid engine: it registers cameras with their
// privacy policies, budgets, mask policy maps and region schemes, and
// executes analyst queries end to end per Algorithm 1 — budget
// admission with the ρ margin, temporal (and optional spatial)
// splitting, sandboxed processing into untrusted intermediate tables,
// SQL aggregation with the Fig. 10 sensitivity calculus, and Laplace
// noise on every data release.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privid/internal/cache"
	"privid/internal/dp"
	"privid/internal/mask"
	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/region"
	"privid/internal/sandbox"
	"privid/internal/store"
	"privid/internal/video"
	"privid/internal/vtime"
)

// CameraConfig registers one camera with the engine. All fields except
// Schemes and Policies are required.
type CameraConfig struct {
	Name   string
	Source video.Source
	// Policy is the camera's default (no-mask) privacy policy (ρ, K).
	Policy policy.Policy
	// Epsilon is the per-frame privacy budget εC (§6.4).
	Epsilon float64
	// Policies optionally maps published mask IDs to (mask, policy)
	// pairs (§7.1, Appendix F.2). Queries choose a mask with
	// WITH MASK <id>.
	Policies *mask.PolicyMap
	// Schemes optionally lists spatial-splitting schemes (§7.2).
	// Queries choose one with BY REGION <name>.
	Schemes map[string]region.Scheme
	// GridSchemes optionally lists Grid Split schemes (§7.2's
	// extension): uniform grids usable with any chunk size, whose
	// sensitivity impact is derived from the owner's object-size and
	// speed bounds. Names share the BY REGION namespace with Schemes.
	GridSchemes map[string]region.GridScheme
}

// Options configure an Engine.
type Options struct {
	// Seed drives the Laplace sampler (deterministic for experiments;
	// a deployment would use a cryptographically secure source).
	Seed int64
	// DefaultQueryEpsilon is the total budget a SELECT consumes when
	// it carries no CONSUMING directive; it is divided evenly across
	// the SELECT's releases. The paper's evaluation uses ε = 1 per
	// query.
	DefaultQueryEpsilon float64
	// Evaluation additionally reports each release's raw (pre-noise)
	// value. It exists only for accuracy studies against a non-private
	// baseline and must be off in any real deployment.
	Evaluation bool
	// Parallelism bounds concurrent sandbox chunk executions
	// engine-wide — across all queries executing at once, not per
	// query — so a serving layer running many workers cannot
	// oversubscribe the CPU and push executables past their wall-clock
	// TIMEOUT. 0 (the default) uses runtime.GOMAXPROCS(0); set 1
	// explicitly to force serial processing.
	Parallelism int
	// PerCameraParallelism bounds concurrent sandbox executions within
	// one camera shard of a multi-camera chunk set, so one camera's
	// chunks cannot monopolize the pool while sibling shards starve
	// (real deployments are also limited per camera by stream decode
	// capacity). 0 (the default) uses Parallelism; values above
	// Parallelism are clamped to it. Single-camera chunk sets always
	// use the full Parallelism.
	PerCameraParallelism int
	// DefaultProcessTimeout is the effective per-chunk TIMEOUT applied
	// when a PROCESS statement carries none. The parser rejects
	// TIMEOUT <= 0, so this only matters for programmatically built
	// query.Programs — but for those, a zero timeout would let a hung
	// ProcessFunc block its sandbox goroutine forever and permanently
	// leak a Parallelism slot (the grace backstop scales off the
	// timeout, so it could never arm). <= 0 (the default) uses
	// defaultProcessTimeout. The statement's own TIMEOUT, when
	// positive, always wins.
	DefaultProcessTimeout time.Duration
	// ChunkCacheBytes bounds the in-memory cache of per-chunk PROCESS
	// results (approximate bytes). 0 (the default) uses
	// DefaultChunkCacheBytes; a negative value disables caching
	// entirely. The cache memoizes sandbox output only — see
	// internal/cache for why a hit can never change budget admission,
	// ε accounting, or noise.
	ChunkCacheBytes int64
	// DiskCacheDir enables the tier-2 chunk cache: an append-only,
	// CRC-framed segment store under this directory that persists
	// memoized PROCESS results across restarts. Lookups fall through
	// RAM to disk, and disk hits are promoted back into RAM. Empty
	// (the default) keeps the cache RAM-only. Combining a negative
	// ChunkCacheBytes with a DiskCacheDir yields a disk-only cache.
	DiskCacheDir string
	// DiskCacheBytes bounds the tier-2 store (approximate bytes;
	// whole oldest segments are deleted to respect it). 0 uses
	// DefaultDiskCacheBytes. Ignored when DiskCacheDir is empty.
	DiskCacheBytes int64
	// StateDir enables the durable privacy ledger: every admitted
	// charge is written to a write-ahead log under this directory and
	// fsynced before the noised result is released, and Open recovers
	// per-camera spent budgets, the audit log and terminal job records
	// from it, so a process restart cannot refill any camera's budget.
	// Empty (the default) keeps the pre-durability in-memory behavior.
	// See DESIGN.md §"Durability & the privacy ledger".
	StateDir string
	// MaxFinishedJobs bounds the terminal (done/failed) jobs kept for
	// polling, oldest dropped first: by the serving layer's job table
	// and, with StateDir, by the WAL's state and snapshots, so a restart
	// recovers every job the server was retaining. 0 uses 1000.
	MaxFinishedJobs int
	// RepairState truncates a torn or corrupt WAL tail to the last
	// valid record when opening StateDir instead of refusing to start
	// (the -repair server flag).
	RepairState bool
	// SnapshotEvery compacts the WAL (snapshot + new generation) after
	// this many records. 0 uses the store default (4096); negative
	// disables automatic compaction.
	SnapshotEvery int
	// WrapWALFile, when non-nil, wraps the WAL's file handle on open
	// (and again after each compaction). It plumbs through to
	// store.Options.WrapFile and exists for fault injection — the
	// chaos harness installs a storetest.FaultyFile here to tear
	// commits under a live engine. Only meaningful with StateDir.
	WrapWALFile func(store.File) store.File
	// Store overrides the durable store entirely (fault-injection
	// tests). Takes precedence over StateDir; no recovery is
	// performed.
	Store store.Store
	// Metrics supplies the metrics registry the engine instruments
	// itself into — share one registry between the engine and a serving
	// layer so scheduler and engine families render in one exposition.
	// Nil creates a fresh registry unless DisableMetrics is set.
	Metrics *obs.Registry
	// DisableMetrics turns off all metrics instrumentation (nil
	// registry: every instrument call becomes a nil-receiver no-op).
	// Exists for overhead baselines (BenchmarkObsOverhead) and
	// minimal-footprint library use; leave it false in deployments.
	DisableMetrics bool
	// Now overrides the audit-log clock (tests only; nil = time.Now).
	Now func() time.Time
}

// DefaultChunkCacheBytes is the chunk-result cache bound used when
// Options.ChunkCacheBytes is 0.
const DefaultChunkCacheBytes = 64 << 20

// DefaultDiskCacheBytes is the tier-2 disk cache bound used when
// Options.DiskCacheDir is set and Options.DiskCacheBytes is 0.
const DefaultDiskCacheBytes = 256 << 20

// defaultProcessTimeout is the effective chunk timeout used when both
// the PROCESS statement and Options.DefaultProcessTimeout leave it
// unset. Generous — it exists to bound hung executables, not to police
// slow ones.
const defaultProcessTimeout = 30 * time.Second

// Engine is a Privid deployment: a set of cameras and a registry of
// analyst executables. Engines are safe for concurrent query
// execution; budget admission is serialized.
type Engine struct {
	opts     Options
	registry *sandbox.Registry
	// chunkCache memoizes per-chunk PROCESS results and coalesces
	// concurrent misses on one chunk key onto one sandbox execution. nil
	// when caching is disabled — and with it coalescing: flights are
	// keyed by the cache's content-identity chunk key, so without a
	// cache there is nothing sound to coalesce on.
	chunkCache *cache.Tiered
	// procSem bounds concurrent sandbox executions engine-wide (size
	// Options.Parallelism). Cache hits bypass it.
	procSem chan struct{}
	// store persists charges, audit entries and terminal jobs; always
	// non-nil (store.NullStore when durability is off). wal is the
	// concrete WAL when StateDir is set (recovery and snapshots).
	store store.Store
	wal   *store.WAL
	// metrics is the exposition registry (nil with DisableMetrics); met
	// holds the hot-path instruments (always non-nil, fields no-op when
	// metrics are disabled).
	metrics *obs.Registry
	met     *engineMetrics

	// Partial-aggregation pushdown tallies (atomic: the streaming shard
	// workers bump them concurrently). See PartialAggStats.
	ppPlans, ppDeclined, ppFolds, ppMerges, ppCachedChunks atomic.Uint64

	// memo holds each program's plan: as many programs as the parse
	// cache holds, and at most 65,536 shards' metas and keys.
	memo cache.Memo[*query.Program, *programPlan]

	mu      sync.Mutex
	cameras map[string]*camera
	noise   *dp.Noise
	audit   []AuditEntry
}

type camera struct {
	cfg    CameraConfig
	ledger *dp.Ledger
}

// New returns an engine with no cameras. It panics if Options demand
// durable state that cannot be opened — only possible with StateDir
// set; use Open to handle recovery errors (torn WAL, bad directory)
// gracefully.
func New(opts Options) *Engine {
	e, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("core: New: %v (use core.Open to handle state-recovery errors)", err))
	}
	return e
}

// Open returns an engine with no cameras, opening and recovering the
// durable state layer when Options.StateDir is set: per-camera spent
// budgets replay from the last snapshot plus the WAL, the audit log is
// restored, and terminal job records become available to the serving
// layer (RecoveredJobs). A torn or corrupt WAL refuses to open unless
// RepairState truncates it to the last valid record.
func Open(opts Options) (*Engine, error) {
	if opts.DefaultQueryEpsilon <= 0 {
		opts.DefaultQueryEpsilon = 1.0
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	if opts.PerCameraParallelism < 1 || opts.PerCameraParallelism > opts.Parallelism {
		opts.PerCameraParallelism = opts.Parallelism
	}
	if opts.ChunkCacheBytes == 0 {
		opts.ChunkCacheBytes = DefaultChunkCacheBytes
	}
	if opts.DiskCacheDir != "" && opts.DiskCacheBytes == 0 {
		opts.DiskCacheBytes = DefaultDiskCacheBytes
	}
	if opts.DefaultProcessTimeout <= 0 {
		opts.DefaultProcessTimeout = defaultProcessTimeout
	}
	if opts.MaxFinishedJobs <= 0 {
		opts.MaxFinishedJobs = 1000
	}
	// Assemble the chunk cache tiers; with neither configured the
	// engine holds no cache at all (the hot path's nil checks).
	var mem *cache.LRU
	if opts.ChunkCacheBytes > 0 {
		mem = cache.New(opts.ChunkCacheBytes)
	}
	var diskTier *cache.Disk
	if opts.DiskCacheDir != "" {
		d, err := cache.OpenDisk(opts.DiskCacheDir, opts.DiskCacheBytes)
		if err != nil {
			return nil, fmt.Errorf("core: open disk cache: %w", err)
		}
		diskTier = d
	}
	var cc *cache.Tiered
	if mem != nil || diskTier != nil {
		cc = cache.NewTiered(mem, diskTier)
	}
	reg := opts.Metrics
	if opts.DisableMetrics {
		reg = nil
	} else if reg == nil {
		reg = obs.NewRegistry()
	}
	st := store.Store(store.NullStore{})
	var wal *store.WAL
	switch {
	case opts.Store != nil:
		st = opts.Store
	case opts.StateDir != "":
		if opts.RepairState {
			if _, err := store.Repair(opts.StateDir); err != nil {
				return nil, fmt.Errorf("core: repair state dir: %w", err)
			}
		}
		w, err := store.Open(opts.StateDir, store.Options{
			SnapshotEvery: opts.SnapshotEvery,
			MaxJobs:       opts.MaxFinishedJobs,
			WrapFile:      opts.WrapWALFile,
			Metrics:       storeMetrics(reg),
		})
		if err != nil {
			return nil, fmt.Errorf("core: open state dir: %w", err)
		}
		wal = w
		st = w
	}
	e := &Engine{
		opts:       opts,
		registry:   sandbox.NewRegistry(),
		chunkCache: cc,
		procSem:    make(chan struct{}, opts.Parallelism),
		store:      st,
		wal:        wal,
		metrics:    reg,
		met:        newEngineMetrics(reg),
		cameras:    map[string]*camera{},
		noise:      dp.NewNoise(opts.Seed),
		memo:       cache.Memo[*query.Program, *programPlan]{MaxEntries: 1024, MaxSize: 1 << 16},
	}
	if wal != nil {
		// Restore the owner's audit log so accountability spans
		// restarts.
		for _, ar := range wal.AuditEntries() {
			e.audit = append(e.audit, AuditEntry{
				At:           ar.At,
				Cameras:      ar.Cameras,
				Releases:     ar.Releases,
				EpsilonSpent: ar.EpsilonSpent,
				Denied:       ar.Denied,
				Reason:       ar.Reason,
			})
		}
	}
	if reg != nil {
		e.registerCollectors(reg)
	}
	return e, nil
}

// Close takes a final snapshot of the durable state (when enabled) and
// closes the store, then writes a final metrics exposition to
// StateDir/metrics.prom (best-effort) so the last scrape interval's
// counters survive shutdown. The engine must be idle: callers drain
// their scheduler first. The metrics registry stays scrapeable after
// Close — every collector reads state that remains valid on a closed
// engine.
func (e *Engine) Close() error {
	err := e.store.Close()
	if e.chunkCache != nil {
		// Sync and unmap the disk cache tier (no-op for RAM-only).
		if cerr := e.chunkCache.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if e.metrics != nil && e.opts.StateDir != "" {
		// Best-effort: the snapshot is diagnostic and never fails Close.
		if f, ferr := os.Create(filepath.Join(e.opts.StateDir, "metrics.prom")); ferr == nil {
			_, _ = e.metrics.WriteTo(f)
			_ = f.Close()
		}
	}
	return err
}

// Metrics returns the engine's metrics registry (nil when Options
// disabled metrics). Serving layers register their own families in it
// and expose it at /v1/metrics.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// StateStore returns the engine's durable store — store.NullStore when
// durability is off — for co-located serving layers (the scheduler
// persists terminal jobs through it so polls resolve across restarts).
func (e *Engine) StateStore() store.Store { return e.store }

// MaxFinishedJobs returns Options.MaxFinishedJobs after defaults: the
// bound a serving layer's job table shares with the WAL.
func (e *Engine) MaxFinishedJobs() int { return e.opts.MaxFinishedJobs }

// RecoveredJobs returns the terminal job records recovered from the
// state dir (nil without one).
func (e *Engine) RecoveredJobs() []store.JobRecord {
	if e.wal == nil {
		return nil
	}
	return e.wal.Jobs()
}

// StateInfo describes the engine's durable state layer; it is the wire
// form of the serving layer's inspection endpoint.
type StateInfo struct {
	// Durable reports whether commits outlive the process.
	Durable bool `json:"durable"`
	// Info is the WAL's status (zero for NullStore or injected stores).
	store.Info
}

// StateInfo returns a snapshot of the durable state layer's status.
func (e *Engine) StateInfo() StateInfo {
	if e.wal == nil {
		_, isNull := e.store.(store.NullStore)
		return StateInfo{Durable: !isNull}
	}
	return StateInfo{Durable: true, Info: e.wal.Info()}
}

// CacheStats returns a snapshot of the chunk-result cache counters
// (zero-valued when caching is disabled).
func (e *Engine) CacheStats() cache.Stats {
	if e.chunkCache == nil {
		return cache.Stats{}
	}
	return e.chunkCache.Stats()
}

// FlightStats returns a snapshot of the chunk singleflight counters
// (zero-valued when caching — and with it coalescing — is disabled).
func (e *Engine) FlightStats() cache.FlightStats {
	if e.chunkCache == nil {
		return cache.FlightStats{}
	}
	return e.chunkCache.FlightStats()
}

// PartialAggStats is a snapshot of the aggregation-pushdown counters:
// how often PROCESS tables streamed into mergeable partial states
// instead of materializing rows, and how much per-chunk work the
// partial-state cache tier absorbed.
type PartialAggStats struct {
	// Plans counts pushdown plans built (one per eligible SELECT per
	// PROCESS execution).
	Plans uint64
	// Declined counts PROCESS executions that had pushdown candidates
	// but fell back to full materialization because at least one
	// consuming SELECT was not mergeable.
	Declined uint64
	// Folds counts per-chunk fold operations (chunk table → partial
	// state).
	Folds uint64
	// Merges counts partial-state merge operations.
	Merges uint64
	// CachedChunks counts chunks whose every plan's state came from the
	// partial-state cache — no sandbox execution, no fold.
	CachedChunks uint64
	// StateHits/StateMisses/StatePuts are the partial-state cache
	// tier's counters (per plan × chunk lookups, from the chunk cache).
	StateHits, StateMisses, StatePuts uint64
}

// PartialStats returns a snapshot of the aggregation-pushdown counters.
func (e *Engine) PartialStats() PartialAggStats {
	s := PartialAggStats{
		Plans:        e.ppPlans.Load(),
		Declined:     e.ppDeclined.Load(),
		Folds:        e.ppFolds.Load(),
		Merges:       e.ppMerges.Load(),
		CachedChunks: e.ppCachedChunks.Load(),
	}
	cs := e.CacheStats()
	s.StateHits, s.StateMisses, s.StatePuts = cs.StateHits, cs.StateMisses, cs.StatePuts
	return s
}

// CameraInfo is the owner-visible description of one registered camera,
// for deployment listings (the serving layer's camera endpoint).
type CameraInfo struct {
	Name    string
	W, H    float64
	FPS     vtime.FrameRate
	Start   time.Time
	Frames  int64
	Epsilon float64
	Policy  policy.Policy
	// Masks lists the published mask IDs analysts may name in WITH MASK.
	Masks []string
	// Schemes lists the spatial-splitting scheme names (region and grid
	// schemes share the BY REGION namespace).
	Schemes []string
}

// Cameras describes every registered camera, sorted by name.
func (e *Engine) Cameras() []CameraInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]CameraInfo, 0, len(e.cameras))
	for _, cam := range e.cameras {
		info := cam.cfg.Source.Info()
		ci := CameraInfo{
			Name:    cam.cfg.Name,
			W:       info.W,
			H:       info.H,
			FPS:     info.FPS,
			Start:   info.Start,
			Frames:  info.Frames,
			Epsilon: cam.cfg.Epsilon,
			Policy:  cam.cfg.Policy,
		}
		if cam.cfg.Policies != nil {
			for _, entry := range cam.cfg.Policies.Entries {
				ci.Masks = append(ci.Masks, entry.ID)
			}
		}
		for name := range cam.cfg.Schemes {
			ci.Schemes = append(ci.Schemes, name)
		}
		for name := range cam.cfg.GridSchemes {
			ci.Schemes = append(ci.Schemes, name)
		}
		sort.Strings(ci.Schemes)
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CameraBudgetStatus summarizes one camera's lifetime privacy budget
// for deployment dashboards (the serving layer's stats endpoint and the
// per-camera metrics gauges report the same numbers). Unlike
// CameraBudget it describes the camera's standing state, not one
// query's charge. The json tags are the stats endpoint's wire names.
type CameraBudgetStatus struct {
	Name    string  `json:"name"`
	Epsilon float64 `json:"epsilon"`
	// Remaining is the worst-case remaining per-frame budget over every
	// frame any query has charged or reserved (Epsilon when untouched).
	Remaining float64 `json:"remaining"`
}

// CameraBudgets reports each camera's configured ε and worst-case
// remaining budget, sorted by name.
func (e *Engine) CameraBudgets() []CameraBudgetStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]CameraBudgetStatus, 0, len(e.cameras))
	for _, cam := range e.cameras {
		out = append(out, CameraBudgetStatus{
			Name:      cam.cfg.Name,
			Epsilon:   cam.cfg.Epsilon,
			Remaining: cam.ledger.MinRemaining(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Registry returns the executable registry analysts register their
// processing code in.
func (e *Engine) Registry() *sandbox.Registry { return e.registry }

// RegisterCamera adds a camera. The name must be unique and the policy
// and budget valid.
func (e *Engine) RegisterCamera(cfg CameraConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("core: camera name required")
	}
	if cfg.Source == nil {
		return fmt.Errorf("core: camera %q has no source", cfg.Name)
	}
	if err := cfg.Policy.Validate(); err != nil {
		return fmt.Errorf("core: camera %q: %w", cfg.Name, err)
	}
	if cfg.Epsilon <= 0 {
		return fmt.Errorf("core: camera %q: epsilon must be positive", cfg.Name)
	}
	for name, sch := range cfg.Schemes {
		if err := sch.Validate(); err != nil {
			return fmt.Errorf("core: camera %q scheme %q: %w", cfg.Name, name, err)
		}
	}
	for name, g := range cfg.GridSchemes {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("core: camera %q grid scheme %q: %w", cfg.Name, name, err)
		}
		if _, dup := cfg.Schemes[name]; dup {
			return fmt.Errorf("core: camera %q: scheme %q defined both as region and grid scheme", cfg.Name, name)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.cameras[cfg.Name]; ok {
		return fmt.Errorf("core: camera %q already registered", cfg.Name)
	}
	led := dp.NewLedger(cfg.Name, cfg.Epsilon)
	if e.wal != nil {
		// Crash recovery: replay the camera's persisted spent budget
		// into the fresh ledger, so a restart cannot refill ε that was
		// already charged. Segments carry absolute values over
		// disjoint intervals, so this reproduces the pre-crash spent
		// function exactly.
		for _, seg := range e.wal.SpentSegments(cfg.Name) {
			led.RestoreSpent(seg.Start, seg.End, seg.Eps)
		}
	}
	e.cameras[cfg.Name] = &camera{cfg: cfg, ledger: led}
	return nil
}

// Remaining returns the remaining per-frame budget of a camera at a
// frame (for owner-side monitoring and tests).
func (e *Engine) Remaining(cameraName string, frame int64) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cam, ok := e.cameras[cameraName]
	if !ok {
		return 0, fmt.Errorf("core: unknown camera %q", cameraName)
	}
	return cam.ledger.Remaining(frame), nil
}

// lookupCamera returns a registered camera.
func (e *Engine) lookupCamera(name string) (*camera, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cam, ok := e.cameras[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown camera %q", name)
	}
	return cam, nil
}
