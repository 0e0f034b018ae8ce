package core

import (
	"errors"
	"sort"
	"time"

	"privid/internal/dp"
	"privid/internal/obs"
	"privid/internal/store"
)

// commitRecordBuckets is the bucket layout of the WAL batch-size
// histogram (records per durable append, powers of two up to the WAL's
// largest group-commit batch, 512 records).
var commitRecordBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// engineMetrics holds the engine's hot-path instruments. All fields
// no-op when nil, so an engine built with DisableMetrics (or a nil
// registry) pays only nil checks. Privacy: every instrument here
// carries counts, durations or ε amounts already present in the audit
// log — never noised values, raw aggregates or row contents.
type engineMetrics struct {
	// querySeconds observes end-to-end execution latency per outcome
	// (ok, denied, error).
	querySeconds *obs.HistogramVec
	// stageSeconds observes per-stage latency (split, process,
	// aggregate, admit, wal_commit, noise). The serving layer reuses the
	// same family for its stages (parse, queue_wait).
	stageSeconds *obs.HistogramVec
	// queries counts executions by outcome.
	queries *obs.CounterVec
	// releases counts noised data releases handed to analysts.
	releases *obs.Counter
	// epsSpent accumulates ε charged per camera.
	epsSpent *obs.CounterVec
	// sandboxSeconds observes individual sandboxed chunk executions
	// (cache hits bypass it entirely).
	sandboxSeconds *obs.Histogram
	// sandboxRuns counts sandbox executions by result: "clean", or
	// "fallback" when the executable timed out or panicked and the
	// contract substituted default rows.
	sandboxRuns *obs.CounterVec

	// Hot-path children, resolved once here so the per-chunk and
	// per-stage paths skip the family's locked label lookup. The vecs
	// above stay for labels not known at construction (cameras) and as
	// the fallback for unexpected stage names.
	sandboxClean    *obs.Counter
	sandboxFallback *obs.Counter
	stages          map[string]*obs.Histogram
}

// engineStages is the fixed set of pipeline stages the engine times.
// The serving layer adds its own (parse, queue_wait) to the same
// family.
var engineStages = []string{"split", "process", "aggregate", "admit", "wal_commit", "noise"}

// newEngineMetrics registers the engine's instrument families in reg.
// A nil reg yields all-nil (no-op) instruments.
func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	m := &engineMetrics{
		querySeconds: reg.HistogramVec("privid_query_seconds",
			"End-to-end query execution latency by outcome.", nil, "outcome"),
		stageSeconds: reg.HistogramVec("privid_query_stage_seconds",
			"Query latency by pipeline stage.", nil, "stage"),
		queries: reg.CounterVec("privid_queries_total",
			"Query executions by outcome (ok, denied, error).", "outcome"),
		releases: reg.Counter("privid_releases_total",
			"Noised data releases returned to analysts."),
		epsSpent: reg.CounterVec("privid_epsilon_spent_total",
			"Privacy budget charged, per camera.", "camera"),
		sandboxSeconds: reg.Histogram("privid_sandbox_exec_seconds",
			"Sandboxed chunk execution latency (cache hits excluded).", nil),
		sandboxRuns: reg.CounterVec("privid_sandbox_runs_total",
			"Sandbox executions by result (clean, fallback).", "result"),
	}
	if reg != nil {
		m.sandboxClean = m.sandboxRuns.With("clean")
		m.sandboxFallback = m.sandboxRuns.With("fallback")
		m.stages = make(map[string]*obs.Histogram, len(engineStages))
		for _, s := range engineStages {
			m.stages[s] = m.stageSeconds.With(s)
		}
	}
	return m
}

// stage observes one pipeline stage's duration.
func (m *engineMetrics) stage(name string, d time.Duration) {
	if m == nil {
		return
	}
	if h, ok := m.stages[name]; ok {
		h.Observe(d.Seconds())
		return
	}
	m.stageSeconds.With(name).Observe(d.Seconds())
}

// sandbox observes one sandboxed chunk execution.
func (m *engineMetrics) sandbox(d time.Duration, clean bool) {
	if m == nil {
		return
	}
	m.sandboxSeconds.Observe(d.Seconds())
	if clean {
		m.sandboxClean.Inc()
	} else {
		m.sandboxFallback.Inc()
	}
}

// queryDone classifies one finished execution. Budget denials count as
// "denied"; everything else that failed is "error" (including a
// persistence failure, which withholds the result like a denial but is
// an operational fault, not a privacy decision).
func (m *engineMetrics) queryDone(res *Result, err error, d time.Duration) {
	if m == nil {
		return
	}
	outcome := "ok"
	var exhausted *dp.ErrBudgetExhausted
	switch {
	case err == nil:
	case errors.As(err, &exhausted):
		outcome = "denied"
	default:
		outcome = "error"
	}
	m.queries.With(outcome).Inc()
	m.querySeconds.With(outcome).Observe(d.Seconds())
	if res != nil {
		m.releases.Add(float64(len(res.Releases)))
		for _, cb := range res.Cameras {
			m.epsSpent.With(cb.Camera).Add(cb.EpsilonSpent)
		}
	}
}

// storeMetrics builds the WAL's instrument set against reg (all no-op
// when reg is nil).
func storeMetrics(reg *obs.Registry) store.Metrics {
	return store.Metrics{
		AppendSeconds: reg.Histogram("privid_wal_append_seconds",
			"Durable WAL append latency (write + fsync).", nil),
		FsyncSeconds: reg.Histogram("privid_wal_fsync_seconds",
			"WAL fsync latency.", nil),
		CommitRecords: reg.Histogram("privid_wal_commit_records",
			"Records per durable WAL append (group-commit batch size).",
			commitRecordBuckets),
	}
}

// collector is one scrape-time family. Exactly one of read (an
// unlabelled sample) and perCamera (one sample per camera, labelled
// "camera") is set; when, if non-nil, says whether an engine of this
// shape has the family at all. group and key, when set, place the
// sample in /v1/stats (see StatsGroups).
type collector struct {
	name, help string
	typ        obs.MetricType
	group, key string
	when       func(e *Engine) bool
	read       func(e *Engine) float64
	perCamera  func(c *camera) float64
}

func hasCache(e *Engine) bool { return e.chunkCache != nil }
func hasDisk(e *Engine) bool  { return e.opts.DiskCacheDir != "" }
func hasWAL(e *Engine) bool   { return e.wal != nil }

// collectors lists every engine counter and gauge in exposition order:
// sandbox pool occupancy, chunk-cache and pushdown counters,
// singleflight, the disk tier, per-camera budget gauges, and WAL state.
// It is the only list of them: the exposition and /v1/stats both render
// from it. Each reads state that already lives behind its own lock or
// atomic, so nothing is mirrored into instruments on the hot path.
var collectors = []collector{
	{name: "privid_sandbox_inflight", help: "Sandbox executions currently holding a parallelism slot.", typ: obs.TypeGauge,
		read: func(e *Engine) float64 { return float64(len(e.procSem)) }},

	{name: "privid_chunk_cache_hits_total", help: "Chunk-result cache hits.", typ: obs.TypeCounter,
		group: "chunk_cache", key: "hits", read: func(e *Engine) float64 { return float64(e.CacheStats().Hits) }},
	{name: "privid_chunk_cache_misses_total", help: "Chunk-result cache misses.", typ: obs.TypeCounter,
		group: "chunk_cache", key: "misses", read: func(e *Engine) float64 { return float64(e.CacheStats().Misses) }},
	{name: "privid_chunk_cache_evictions_total", help: "Chunk-result cache evictions.", typ: obs.TypeCounter,
		group: "chunk_cache", key: "evictions", read: func(e *Engine) float64 { return float64(e.CacheStats().Evictions) }},
	{name: "privid_chunk_cache_entries", help: "Chunk-result cache resident entries.", typ: obs.TypeGauge,
		group: "chunk_cache", key: "entries", read: func(e *Engine) float64 { return float64(e.CacheStats().Entries) }},
	{name: "privid_chunk_cache_puts_total", help: "Chunk-result cache write-through stores (disk→RAM promotions excluded).", typ: obs.TypeCounter,
		group: "chunk_cache", key: "puts", read: func(e *Engine) float64 { return float64(e.CacheStats().Puts) }},
	{name: "privid_chunk_cache_declined_total", help: "Chunk-result cache puts a RAM-only tier declined because it would not have kept them.", typ: obs.TypeCounter,
		group: "chunk_cache", key: "declined", read: func(e *Engine) float64 { return float64(e.CacheStats().Declined) }},
	{name: "privid_chunk_cache_bytes", help: "Chunk-result cache resident bytes.", typ: obs.TypeGauge,
		group: "chunk_cache", key: "bytes", read: func(e *Engine) float64 { return float64(e.CacheStats().Bytes) }},
	{name: "privid_chunk_cache_max_bytes", help: "Chunk-result cache RAM-tier byte bound.", typ: obs.TypeGauge,
		group: "chunk_cache", key: "max_bytes", read: func(e *Engine) float64 { return float64(e.CacheStats().MaxBytes) }},

	{name: "privid_partial_agg_plans_total", help: "Aggregation-pushdown plans built (one per mergeable SELECT per PROCESS execution).", typ: obs.TypeCounter,
		group: "partial_agg", key: "plans", read: func(e *Engine) float64 { return float64(e.PartialStats().Plans) }},
	{name: "privid_partial_agg_declined_total", help: "PROCESS executions with pushdown candidates that fell back to full materialization.", typ: obs.TypeCounter,
		group: "partial_agg", key: "declined", read: func(e *Engine) float64 { return float64(e.PartialStats().Declined) }},
	{name: "privid_partial_agg_folds_total", help: "Per-chunk folds of sandbox output into partial aggregate states.", typ: obs.TypeCounter,
		group: "partial_agg", key: "folds", read: func(e *Engine) float64 { return float64(e.PartialStats().Folds) }},
	{name: "privid_partial_agg_merges_total", help: "Partial aggregate state merges.", typ: obs.TypeCounter,
		group: "partial_agg", key: "merges", read: func(e *Engine) float64 { return float64(e.PartialStats().Merges) }},
	{name: "privid_partial_agg_chunks_cached_total", help: "Chunks answered entirely from the partial-state cache tier (no sandbox, no fold).", typ: obs.TypeCounter,
		group: "partial_agg", key: "cached_chunks", read: func(e *Engine) float64 { return float64(e.PartialStats().CachedChunks) }},
	{name: "privid_partial_agg_state_hits_total", help: "Partial-state cache hits (per plan × chunk lookups).", typ: obs.TypeCounter,
		group: "partial_agg", key: "state_hits", read: func(e *Engine) float64 { return float64(e.PartialStats().StateHits) }},
	{name: "privid_partial_agg_state_misses_total", help: "Partial-state cache misses.", typ: obs.TypeCounter,
		group: "partial_agg", key: "state_misses", read: func(e *Engine) float64 { return float64(e.PartialStats().StateMisses) }},
	{name: "privid_partial_agg_state_puts_total", help: "Partial-state cache stores.", typ: obs.TypeCounter,
		group: "partial_agg", key: "state_puts", read: func(e *Engine) float64 { return float64(e.PartialStats().StatePuts) }},

	{name: "privid_plan_memo_hits_total", help: "Program executions whose plan (chunk-set layout, SELECT skeletons, pushdown decisions and cache-key prefixes) came from the program memo.", typ: obs.TypeCounter,
		group: "plan_memo", key: "hits", read: func(e *Engine) float64 { return float64(e.planHits.Load()) }},
	{name: "privid_plan_memo_misses_total", help: "Program executions planned afresh (a program not in the memo, or one whose catalog inputs changed).", typ: obs.TypeCounter,
		group: "plan_memo", key: "misses", read: func(e *Engine) float64 { return float64(e.planMisses.Load()) }},

	{name: "privid_chunk_singleflight_leaders_total", help: "Chunk executions performed under singleflight leadership (initial leaders plus promoted followers).", typ: obs.TypeCounter,
		group: "singleflight", key: "leaders", when: hasCache, read: func(e *Engine) float64 { return float64(e.FlightStats().Leaders) }},
	{name: "privid_chunk_singleflight_followers_total", help: "Chunk executions avoided by sharing a concurrent leader's result.", typ: obs.TypeCounter,
		group: "singleflight", key: "followers", when: hasCache, read: func(e *Engine) float64 { return float64(e.FlightStats().Followers) }},
	{name: "privid_chunk_singleflight_handoffs_total", help: "Followers promoted to leader after their leader's execution failed.", typ: obs.TypeCounter,
		group: "singleflight", key: "handoffs", when: hasCache, read: func(e *Engine) float64 { return float64(e.FlightStats().Handoffs) }},
	{name: "privid_chunk_singleflight_timeouts_total", help: "Followers that waited out their leader and executed alone.", typ: obs.TypeCounter,
		group: "singleflight", key: "timeouts", when: hasCache, read: func(e *Engine) float64 { return float64(e.FlightStats().Timeouts) }},
	{name: "privid_chunk_singleflight_waiting", help: "Followers currently blocked on a leader.", typ: obs.TypeGauge,
		group: "singleflight", key: "waiting", when: hasCache, read: func(e *Engine) float64 { return float64(e.FlightStats().Waiting) }},

	{name: "privid_chunk_cache_disk_hits_total", help: "Chunk-result lookups served by the disk tier.", typ: obs.TypeCounter,
		group: "chunk_cache", key: "disk_hits", when: hasDisk, read: func(e *Engine) float64 { return float64(e.CacheStats().DiskHits) }},
	{name: "privid_chunk_cache_disk_misses_total", help: "Chunk-result lookups that missed the disk tier.", typ: obs.TypeCounter,
		group: "chunk_cache", key: "disk_misses", when: hasDisk, read: func(e *Engine) float64 { return float64(e.CacheStats().DiskMisses) }},
	{name: "privid_chunk_cache_disk_puts_total", help: "Chunk-result entries appended to the disk tier.", typ: obs.TypeCounter,
		group: "chunk_cache", key: "disk_puts", when: hasDisk, read: func(e *Engine) float64 { return float64(e.CacheStats().DiskPuts) }},
	{name: "privid_chunk_cache_promotions_total", help: "Disk-tier hits promoted back into the RAM tier.", typ: obs.TypeCounter,
		group: "chunk_cache", key: "promotions", when: hasDisk, read: func(e *Engine) float64 { return float64(e.CacheStats().Promotions) }},
	{name: "privid_chunk_cache_disk_bytes", help: "Disk-tier resident bytes across segments.", typ: obs.TypeGauge,
		group: "chunk_cache", key: "disk_bytes", when: hasDisk, read: func(e *Engine) float64 { return float64(e.CacheStats().DiskBytes) }},
	{name: "privid_chunk_cache_disk_max_bytes", help: "Disk-tier byte bound.", typ: obs.TypeGauge,
		group: "chunk_cache", key: "disk_max_bytes", when: hasDisk, read: func(e *Engine) float64 { return float64(e.CacheStats().DiskMaxBytes) }},
	{name: "privid_chunk_cache_disk_segments", help: "Disk-tier segment-file count.", typ: obs.TypeGauge,
		group: "chunk_cache", key: "disk_segments", when: hasDisk, read: func(e *Engine) float64 { return float64(e.CacheStats().DiskSegments) }},
	{name: "privid_chunk_cache_disk_evictions_total", help: "Disk-tier segments deleted to respect the size bound.", typ: obs.TypeCounter,
		group: "chunk_cache", key: "disk_evictions", when: hasDisk, read: func(e *Engine) float64 { return float64(e.CacheStats().DiskEvictions) }},

	{name: "privid_camera_epsilon_budget", help: "Configured per-frame privacy budget, per camera.", typ: obs.TypeGauge,
		perCamera: func(c *camera) float64 { return c.cfg.Epsilon }},
	{name: "privid_camera_epsilon_remaining", help: "Worst-case remaining per-frame budget over all charged frames, per camera.", typ: obs.TypeGauge,
		perCamera: func(c *camera) float64 { return c.ledger.MinRemaining() }},

	{name: "privid_wal_bytes", help: "Active WAL generation size in bytes.", typ: obs.TypeGauge,
		when: hasWAL, read: func(e *Engine) float64 { return float64(e.wal.Info().WALBytes) }},
	{name: "privid_wal_generation", help: "Active WAL generation (advances on compaction).", typ: obs.TypeGauge,
		when: hasWAL, read: func(e *Engine) float64 { return float64(e.wal.Info().Gen) }},
	{name: "privid_wal_records_since_snapshot", help: "WAL records the next compaction will fold into the snapshot.", typ: obs.TypeGauge,
		when: hasWAL, read: func(e *Engine) float64 { return float64(e.wal.Info().RecordsSinceSnapshot) }},
	{name: "privid_wal_snapshots_total", help: "WAL compactions taken by this process.", typ: obs.TypeCounter,
		when: hasWAL, read: func(e *Engine) float64 { return float64(e.wal.Info().Snapshots) }},
}

// StatsGroups renders the counter groups of /v1/stats from the
// collectors table, so a wire field and its family read one value. It
// walks the table, not the registry, so it works with DisableMetrics,
// and it ignores when, so every group has every key whatever the shape
// (an absent tier reads zero). hit_rate is the one field without a
// family: hits/(hits+misses), 0 before any lookup.
func (e *Engine) StatsGroups() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, c := range collectors {
		if c.group == "" {
			continue
		}
		if out[c.group] == nil {
			out[c.group] = map[string]float64{}
		}
		out[c.group][c.key] = c.read(e)
	}
	cc := out["chunk_cache"]
	cc["hit_rate"] = 0
	if n := cc["hits"] + cc["misses"]; n > 0 {
		cc["hit_rate"] = cc["hits"] / n
	}
	return out
}

// registerCollectors installs the collectors this engine's shape has.
// Called exactly once, at the end of Open — never later, and never
// under e.mu — so a scrape (which runs the collectors under the
// registry's read lock) can safely take e.mu without lock-order
// inversion against registration.
func (e *Engine) registerCollectors(reg *obs.Registry) {
	for _, c := range collectors {
		if c.when != nil && !c.when(e) {
			continue
		}
		if c.perCamera == nil {
			reg.CollectFunc(c.name, c.help, c.typ, nil, func(emit obs.Emit) { emit(nil, c.read(e)) })
			continue
		}
		// One collector enumerates the cameras per scrape rather than
		// registering a child per RegisterCamera call: registration under
		// e.mu must never touch the registry lock (see package obs).
		reg.CollectFunc(c.name, c.help, c.typ, []string{"camera"}, func(emit obs.Emit) {
			e.mu.Lock()
			defer e.mu.Unlock()
			names := make([]string, 0, len(e.cameras))
			for name := range e.cameras {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				emit([]string{name}, c.perCamera(e.cameras[name]))
			}
		})
	}
}
