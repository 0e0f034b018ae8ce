// Command privid-server boots a Privid engine from a JSON deployment
// config and serves it over HTTP: analysts submit queries
// asynchronously (submit → job ID → poll), the owner inspects cameras,
// remaining budgets and the audit log, and repeated or overlapping
// query windows are answered out of the engine's chunk-result cache.
//
// Usage:
//
//	privid-server [-config deploy.json] [-addr :8080] [-state-dir DIR]
//	privid-server -state-dir DIR -repair   # truncate a torn WAL tail
//	privid-server -dump-config             # print the default deployment
//
// Without -config it serves the default synthetic deployment (the
// paper's campus, highway and urban cameras, 30 minutes each).
//
// With -state-dir (or "state_dir" in the config) the privacy ledger is
// durable: every ε charge is written to a write-ahead log and fsynced
// before the noised result is released, so restarting the server
// cannot refill any camera's budget. On SIGINT/SIGTERM the server
// shuts down gracefully — it stops accepting queries, drains running
// jobs, and compacts the log into a snapshot so the next start
// recovers instantly. A torn WAL (crash mid-write) refuses to start;
// -repair truncates it to the last valid record.
//
// Each camera entry names a built-in scene profile; its policy is the
// (ρ, K) bound of §5 and epsilon the per-frame budget εC of §6.4.
// Setting mask_factors additionally publishes an Algorithm 2 mask
// ladder for the camera, and the profile's region schemes are always
// installed. The server registers generic analyst executables that
// work on any camera:
//
//	headcount       — one row with the object count at the chunk's
//	                  middle frame
//	count_entrants  — one row per private object entering during the
//	                  chunk (the §6.2 counting pattern)
//	max_speed       — one row with the chunk's maximum object speed
//
// API summary (JSON): POST /v1/queries, GET /v1/queries/{id}[/result],
// GET /v1/queries/{id}/trace, GET /v1/cameras,
// GET /v1/cameras/{name}/budget, GET /v1/executables, GET /v1/audit,
// GET /v1/stats, GET /v1/healthz — plus GET /v1/metrics (Prometheus
// text exposition of scheduler, cache, ledger and latency metrics).
//
// Observability: every completed query records a span tree
// (parse → admission → per-shard processing → noise) served at
// /v1/queries/{id}/trace; "slow_query_log" in the config appends one
// JSON line per query slower than "slow_query_threshold_ms". With
// -debug-addr (or "debug_addr" in the config) the server additionally
// opens a separate operator-only listener exposing net/http/pprof under
// /debug/pprof/ and the metrics exposition at /metrics — kept off the
// analyst-facing address so profiling endpoints are never reachable
// through the public API. See docs/OPERATIONS.md §"Monitoring".
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"privid"
)

// cameraSpec is one camera of the deployment config.
type cameraSpec struct {
	// Name is the camera name queries reference in SPLIT.
	Name string `json:"name"`
	// Profile names a built-in scene profile (campus, highway, urban,
	// grandcanal, venicerialto, taipei, shibuya, beach, warsaw, uav).
	Profile string `json:"profile"`
	// Seed drives deterministic scene generation.
	Seed int64 `json:"seed"`
	// Minutes is the stream length.
	Minutes float64 `json:"minutes"`
	// RhoSeconds and K are the (ρ, K) privacy policy.
	RhoSeconds float64 `json:"rho_seconds"`
	K          int     `json:"k"`
	// Epsilon is the per-frame privacy budget εC.
	Epsilon float64 `json:"epsilon"`
	// MaskFactors optionally publishes an Algorithm 2 mask ladder with
	// these persistence-reduction targets (1 = unmasked).
	MaskFactors []float64 `json:"mask_factors,omitempty"`
}

// config is the deployment file privid-server boots from.
type config struct {
	// Addr is the listen address.
	Addr string `json:"addr"`
	// Seed drives the engine's noise sampler.
	Seed int64 `json:"seed"`
	// DefaultQueryEpsilon is the per-query budget when a SELECT has no
	// CONSUMING directive.
	DefaultQueryEpsilon float64 `json:"default_query_epsilon"`
	// Parallelism bounds concurrent chunk processing (0 = all cores).
	Parallelism int `json:"parallelism"`
	// PerCameraParallelism bounds concurrent chunk processing within
	// one camera shard of a multi-camera query (0 = Parallelism).
	PerCameraParallelism int `json:"per_camera_parallelism,omitempty"`
	// ChunkCacheBytes bounds the chunk-result cache (0 = 64 MiB
	// default, negative disables).
	ChunkCacheBytes int64 `json:"chunk_cache_bytes"`
	// DiskCacheDir enables the persistent tier-2 chunk cache under
	// this directory; empty keeps the cache RAM-only. Memoized chunk
	// results survive restarts and are promoted back into RAM on hit.
	DiskCacheDir string `json:"disk_cache_dir"`
	// DiskCacheBytes bounds the tier-2 store (0 = 256 MiB default).
	DiskCacheBytes int64 `json:"disk_cache_bytes"`
	// Workers, PerAnalystInFlight and QueueDepth size the scheduler;
	// MaxFinishedJobs bounds the jobs it and the state dir keep (0 = defaults).
	Workers            int `json:"workers"`
	PerAnalystInFlight int `json:"per_analyst_in_flight"`
	QueueDepth         int `json:"queue_depth"`
	MaxFinishedJobs    int `json:"max_finished_jobs"`
	// StateDir enables the durable privacy ledger (WAL + snapshots);
	// empty keeps budgets in memory only.
	StateDir string `json:"state_dir,omitempty"`
	// DebugAddr opens a separate operator-only listener serving
	// net/http/pprof under /debug/pprof/ and the Prometheus exposition
	// at /metrics; empty disables it.
	DebugAddr string `json:"debug_addr,omitempty"`
	// SlowQueryLog appends one JSON line per slow terminal query to
	// this file; empty disables the slow-query log.
	SlowQueryLog string `json:"slow_query_log,omitempty"`
	// SlowQueryThresholdMS is the execution-duration threshold for the
	// slow-query log, in milliseconds (0 with SlowQueryLog set uses
	// 1000).
	SlowQueryThresholdMS float64 `json:"slow_query_threshold_ms,omitempty"`
	// SnapshotEvery compacts the WAL after this many records (0 =
	// default, negative disables automatic compaction).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// Cameras lists the deployment's cameras.
	Cameras []cameraSpec `json:"cameras"`
}

// defaultConfig is the paper's three-camera deployment at 30 minutes
// per stream.
func defaultConfig() config {
	cams := make([]cameraSpec, 0, 3)
	for _, name := range []string{"campus", "highway", "urban"} {
		cams = append(cams, cameraSpec{
			Name: name, Profile: name, Seed: 1, Minutes: 30,
			RhoSeconds: 60, K: 2, Epsilon: 10,
		})
	}
	return config{Addr: ":8080", Seed: 1, Cameras: cams}
}

func loadConfig(path string) (config, error) {
	if path == "" {
		return defaultConfig(), nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return config{}, err
	}
	cfg := config{Addr: ":8080"}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return config{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(cfg.Cameras) == 0 {
		return config{}, fmt.Errorf("%s: no cameras configured", path)
	}
	return cfg, nil
}

func buildEngine(cfg config, repair bool) (*privid.Engine, error) {
	engine, err := privid.Open(privid.Options{
		Seed:                 cfg.Seed,
		DefaultQueryEpsilon:  cfg.DefaultQueryEpsilon,
		Parallelism:          cfg.Parallelism,
		PerCameraParallelism: cfg.PerCameraParallelism,
		ChunkCacheBytes:      cfg.ChunkCacheBytes,
		DiskCacheDir:         cfg.DiskCacheDir,
		DiskCacheBytes:       cfg.DiskCacheBytes,
		StateDir:             cfg.StateDir,
		SnapshotEvery:        cfg.SnapshotEvery,
		MaxFinishedJobs:      cfg.MaxFinishedJobs,
		RepairState:          repair,
	})
	if err != nil {
		return nil, err
	}
	profiles := privid.AllProfiles()
	for _, spec := range cfg.Cameras {
		p, ok := profiles[spec.Profile]
		if !ok {
			return nil, fmt.Errorf("camera %q: unknown profile %q", spec.Name, spec.Profile)
		}
		if spec.Minutes <= 0 {
			return nil, fmt.Errorf("camera %q: minutes must be positive", spec.Name)
		}
		dur := time.Duration(spec.Minutes * float64(time.Minute))
		cc := privid.CameraConfig{
			Name:    spec.Name,
			Source:  privid.NewSceneCamera(spec.Name, p, spec.Seed, dur),
			Policy:  privid.Policy{Rho: time.Duration(spec.RhoSeconds * float64(time.Second)), K: spec.K},
			Epsilon: spec.Epsilon,
			Schemes: p.FrameSchemes(),
		}
		if len(spec.MaskFactors) > 0 {
			s := privid.GenerateScene(p, spec.Seed, dur)
			cc.Policies = privid.BuildMaskPolicyMap(spec.Name, s, spec.K, spec.MaskFactors)
		}
		if err := engine.RegisterCamera(cc); err != nil {
			return nil, err
		}
	}
	if err := registerExecutables(engine); err != nil {
		return nil, err
	}
	return engine, nil
}

// registerExecutables installs the generic analyst executables the
// server offers over any camera.
func registerExecutables(e *privid.Engine) error {
	execs := map[string]privid.ProcessFunc{
		"headcount":      headcount,
		"count_entrants": countEntrants,
		"max_speed":      maxSpeed,
	}
	for name, fn := range execs {
		if err := e.Registry().Register(name, fn); err != nil {
			return err
		}
	}
	return nil
}

// headcount emits one row with the number of objects visible at the
// chunk's middle frame.
func headcount(chunk *privid.Chunk) []privid.Row {
	n := 0
	for _, o := range chunk.Frame(chunk.Len() / 2).Objects {
		if o.EntityID >= 0 {
			n++
		}
	}
	return []privid.Row{{privid.N(float64(n))}}
}

// countEntrants emits one row per private object that enters during
// the chunk — visible in a later frame but not the first — which is
// the §6.2 pattern for counting without stable IDs.
func countEntrants(chunk *privid.Chunk) []privid.Row {
	seen := map[int]bool{}
	for _, o := range chunk.Frame(0).Objects {
		seen[o.EntityID] = true
	}
	counted := map[int]bool{}
	var rows []privid.Row
	for f := int64(1); f < chunk.Len(); f++ {
		for _, o := range chunk.Frame(f).Objects {
			if o.EntityID < 0 || seen[o.EntityID] || counted[o.EntityID] {
				continue
			}
			counted[o.EntityID] = true
			rows = append(rows, privid.Row{privid.N(1)})
		}
	}
	return rows
}

// maxSpeed emits one row with the maximum instantaneous object speed
// observed in the chunk (sampled once per second).
func maxSpeed(chunk *privid.Chunk) []privid.Row {
	step := int64(chunk.FPS)
	if step < 1 {
		step = 1
	}
	max := 0.0
	for f := int64(0); f < chunk.Len(); f += step {
		for _, o := range chunk.Frame(f).Objects {
			if o.Speed > max {
				max = o.Speed
			}
		}
	}
	return []privid.Row{{privid.N(max)}}
}

func main() {
	var (
		cfgPath   = flag.String("config", "", "deployment config JSON (default: built-in 3-camera deployment)")
		addr      = flag.String("addr", "", "listen address (overrides config)")
		stateDir  = flag.String("state-dir", "", "durable ledger directory (overrides config; empty = in-memory budgets)")
		debugAddr = flag.String("debug-addr", "", "operator-only listener for pprof + /metrics (overrides config; empty = disabled)")
		repair    = flag.Bool("repair", false, "truncate a torn WAL tail to the last valid record before starting")
		dump      = flag.Bool("dump-config", false, "print the default deployment config and exit")
	)
	flag.Parse()

	if *dump {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(defaultConfig())
		return
	}

	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		log.Fatalf("privid-server: %v", err)
	}
	if *addr != "" {
		cfg.Addr = *addr
	}
	if *stateDir != "" {
		cfg.StateDir = *stateDir
	}
	if *debugAddr != "" {
		cfg.DebugAddr = *debugAddr
	}
	if *repair && cfg.StateDir == "" {
		// Repairing nothing must not silently boot an in-memory server
		// with refilled budgets.
		log.Fatalf("privid-server: -repair requires a state dir (-state-dir flag or state_dir in the config)")
	}

	log.Printf("building engine (%d cameras)...", len(cfg.Cameras))
	engine, err := buildEngine(cfg, *repair)
	if err != nil {
		log.Fatalf("privid-server: %v", err)
	}
	if cfg.StateDir != "" {
		si := engine.StateInfo()
		log.Printf("durable ledger at %s: %d cameras with persisted charges, %d jobs, %d audit entries recovered",
			si.Dir, si.Cameras, si.Jobs, si.AuditEntries)
	}
	for _, ci := range engine.Cameras() {
		log.Printf("camera %-10s %.0f frames @ %d fps, eps=%.3g, rho=%s, K=%d, masks=%v schemes=%v",
			ci.Name, float64(ci.Frames), int(ci.FPS), ci.Epsilon, ci.Policy.Rho, ci.Policy.K, ci.Masks, ci.Schemes)
	}

	schedOpts := privid.SchedulerOptions{
		Workers:            cfg.Workers,
		PerAnalystInFlight: cfg.PerAnalystInFlight,
		QueueDepth:         cfg.QueueDepth,
	}
	var slowFile *os.File
	if cfg.SlowQueryLog != "" {
		slowFile, err = os.OpenFile(cfg.SlowQueryLog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatalf("privid-server: slow-query log: %v", err)
		}
		defer slowFile.Close()
		threshold := time.Duration(cfg.SlowQueryThresholdMS * float64(time.Millisecond))
		if threshold <= 0 {
			threshold = time.Second
		}
		schedOpts.SlowQueryLog = slowFile
		schedOpts.SlowQueryThreshold = threshold
		log.Printf("slow-query log at %s (threshold %s)", cfg.SlowQueryLog, threshold)
	}
	sched := privid.NewScheduler(engine, schedOpts)

	// The debug listener is opt-in and separate from the analyst API:
	// pprof exposes heap contents and the operator may not want the
	// metrics exposition on the public address either.
	var debugSrv *http.Server
	if cfg.DebugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_, _ = engine.Metrics().WriteTo(w)
		})
		debugSrv = &http.Server{Addr: cfg.DebugAddr, Handler: mux}
		go func() {
			log.Printf("debug listener (pprof, /metrics) on %s", cfg.DebugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("privid-server: debug listener: %v", err)
			}
		}()
	}

	log.Printf("serving on %s", cfg.Addr)
	srv := &http.Server{
		Addr:    cfg.Addr,
		Handler: privid.NewAPIHandler(engine, sched),
		// Slow-client limits: requests are small JSON, responses are
		// bounded; nothing legitimate needs minutes of socket time.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: stop accepting connections, drain running
	// jobs (their charges and results persist as they finish), then
	// compact the durable state into a final snapshot so the next
	// start recovers instantly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("privid-server: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down: draining connections and jobs...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("privid-server: http shutdown: %v", err)
		}
		if debugSrv != nil {
			_ = debugSrv.Shutdown(shutdownCtx)
		}
		sched.Close() // drains jobs, syncs the slow-query log
		if err := engine.Close(); err != nil {
			log.Printf("privid-server: state close: %v", err)
		} else if cfg.StateDir != "" {
			log.Printf("state snapshotted to %s", cfg.StateDir)
		}
	}
}
