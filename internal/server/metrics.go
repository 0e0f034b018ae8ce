package server

import (
	"time"

	"privid/internal/obs"
)

// schedMetrics holds the scheduler's hot-path instruments. They live in
// the engine's registry so one scrape covers both layers; every field
// no-ops when nil (engine built with core.Options.DisableMetrics).
type schedMetrics struct {
	// stageSeconds reuses the engine's per-stage latency family for the
	// serving-layer stages (parse, queue_wait). Registration is
	// idempotent, so whichever layer registers first owns the family and
	// both observe into it.
	stageSeconds *obs.HistogramVec
	// submissions counts submissions accepted into the queue.
	submissions *obs.Counter
	// refusals counts refused submissions by reason (parse, busy,
	// queue_full, closed).
	refusals *obs.CounterVec
}

func newSchedMetrics(reg *obs.Registry) *schedMetrics {
	return &schedMetrics{
		stageSeconds: reg.HistogramVec("privid_query_stage_seconds",
			"Query latency by pipeline stage.", nil, "stage"),
		submissions: reg.Counter("privid_scheduler_submissions_total",
			"Query submissions accepted into the queue."),
		refusals: reg.CounterVec("privid_scheduler_refusals_total",
			"Query submissions refused, by reason (parse, busy, queue_full, closed).",
			"reason"),
	}
}

// stage observes one serving-layer stage duration.
func (m *schedMetrics) stage(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.stageSeconds.With(name).Observe(d.Seconds())
}

// refused counts one refused submission.
func (m *schedMetrics) refused(reason string) {
	if m == nil {
		return
	}
	m.refusals.With(reason).Inc()
}

// schedCollectors lists the scheduler's scrape-time families. Each
// reads one field of a Stats snapshot, so the exposition and /v1/stats
// count from one place.
var schedCollectors = []struct {
	name, help string
	typ        obs.MetricType
	read       func(Stats) int64
}{
	{"privid_scheduler_queue_depth", "Jobs waiting for a worker.", obs.TypeGauge,
		func(st Stats) int64 { return int64(st.Queued) }},
	{"privid_scheduler_workers", "Worker-pool size (max concurrent query executions).", obs.TypeGauge,
		func(st Stats) int64 { return int64(st.Workers) }},
	{"privid_scheduler_running", "Jobs currently executing on the worker pool.", obs.TypeGauge,
		func(st Stats) int64 { return int64(st.Running) }},
	{"privid_scheduler_recovered_jobs_total", "Terminal jobs adopted from the durable store at startup.", obs.TypeCounter,
		func(st Stats) int64 { return st.Recovered }},
	{"privid_slow_queries_total", "Slow-query log entries written.", obs.TypeCounter,
		func(st Stats) int64 { return st.SlowQueries }},
	{"privid_parse_cache_hits_total", "Submissions whose parsed program came from the parse cache.", obs.TypeCounter,
		func(st Stats) int64 { return st.ParseCacheHits }},
	{"privid_parse_cache_misses_total", "Submissions parsed afresh (a text not in the parse cache, or one that failed to parse).", obs.TypeCounter,
		func(st Stats) int64 { return st.ParseCacheMisses }},
}

// registerCollectors installs schedCollectors. Called once from
// NewScheduler before the workers start and never under s.mu,
// mirroring the engine's registration discipline (a scrape runs
// collectors under the registry's read lock and Stats takes s.mu;
// registration must therefore never happen under s.mu).
func (s *Scheduler) registerCollectors(reg *obs.Registry) {
	for _, c := range schedCollectors {
		reg.CollectFunc(c.name, c.help, c.typ, nil, func(emit obs.Emit) { emit(nil, float64(c.read(s.Stats()))) })
	}
}
