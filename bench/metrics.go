package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"privid/internal/cache"
	"privid/internal/core"
)

// metricDecl declares one metric. BENCHMARK.json repeats these tables;
// smoke_test.go fails when the two disagree.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: worsening, as a share of the parent's median, that counts as a regression
}

// endToEnd is what an analyst or operator of the service sees. Failures
// are not in this table because a metric here may never be 0: they are
// the attempted/failed counts of every result, and any failed op makes
// the command exit non-zero.
var endToEnd = []metricDecl{
	{"throughput_qps", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is measured on the traced run, by seam spans (S), counter
// deltas of exported snapshots (C), or probes of exported functions (P).
var perLayer = []metricDecl{
	{Name: "client.submit_ingress_ms", Unit: "ms", Better: "lower"},
	{Name: "client.result_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "client.polls_per_op", Unit: "count", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "client.identity_ok_share", Unit: "ratio", Better: "higher"},
	{Name: "server.http_submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_poll_ms", Unit: "ms", Better: "lower"},
	{Name: "server.poll_resp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.exec_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.refused_per_op", Unit: "ratio", Better: "lower"},
	{Name: "server.backlog_end", Unit: "count", Better: "lower"},
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "video.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "video.read_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "sandbox.execs_per_op", Unit: "count", Better: "lower"},
	{Name: "sandbox.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "sandbox.harness_us", Unit: "us", Better: "lower"},
	{Name: "cache.table_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.state_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.disk_hits_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.promotions_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.puts_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.flight_followers_per_op", Unit: "count", Better: "higher"},
	{Name: "cache.get_state_us", Unit: "us", Better: "lower"},
	{Name: "cache.get_table_us", Unit: "us", Better: "lower"},
	{Name: "cache.put_us", Unit: "us", Better: "lower"},
	{Name: "cache.disk_get_us", Unit: "us", Better: "lower"},
	{Name: "cache.est_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "table.from_rows_us", Unit: "us", Better: "lower"},
	{Name: "table.encode_us", Unit: "us", Better: "lower"},
	{Name: "table.decode_us", Unit: "us", Better: "lower"},
	{Name: "table.est_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "rel.folds_per_op", Unit: "count", Better: "lower"},
	{Name: "rel.merges_per_op", Unit: "count", Better: "lower"},
	{Name: "rel.pushdown_declined_share", Unit: "ratio", Better: "lower"},
	{Name: "rel.fold_us", Unit: "us", Better: "lower"},
	{Name: "rel.merge_us", Unit: "us", Better: "lower"},
	{Name: "rel.decode_state_us", Unit: "us", Better: "lower"},
	{Name: "rel.finalize_us", Unit: "us", Better: "lower"},
	{Name: "rel.select_materialised_us", Unit: "us", Better: "lower"},
	{Name: "rel.est_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "dp.reserve_us", Unit: "us", Better: "lower"},
	{Name: "dp.laplace_ns", Unit: "ns", Better: "lower"},
	{Name: "dp.est_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "store.commits_per_op", Unit: "count", Better: "lower"},
	{Name: "store.charge_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "store.job_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "store.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "store.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "store.fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "store.snapshots", Unit: "count", Better: "lower"},
	{Name: "core.engine_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "process.heap_inuse_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "1/s", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms/s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// rateWindow is the window rates — throughput and CPU time per op — are
// read in: it slides over the run in steps of rateStep and the run reports
// its best window, the highest rate and the lowest CPU time per op. The
// sandbox is a 2-vCPU VM on a shared host, and what the host does to it
// only ever slows the benchmark down — for seconds at a time it is granted
// little more than one core — so the window least disturbed is the one that
// says most about the code. A second is long enough to hold what the server
// does periodically — a WAL snapshot (one every 0.9 s on durable_small,
// stopping both clients for ~50 ms) and several GC cycles — so that a rate
// read off one window has paid for them. Replayed over the recorded ops of
// nine sets of ten runs, the quartiles of ten runs' throughput lay 6–16% of
// the median apart with this statistic (10% on average), 4–22% (11%) with
// the best of ten 1.5 s slices and 4–31% (15%) with the median slice. A
// best-of statistic takes a transient for the steady state if the run has
// one, which is why durable_small is prefilled and burst_open ramped up
// (see stack.prefill and rampUp). When the host disturbs a whole run, no
// statistic of that run helps; the bounds in endToEnd allow for it.
const (
	rateWindow = time.Second
	rateStep   = rateWindow / 4
)

// latWindow is the window latency quantiles are read in: the window slides
// over the run in steps of a quarter of its length, every window yields the
// p50 and p95 of the ops that start in it, and the run reports the lowest
// decile of each (see quietWindows). A latency is a property of one op, not
// a rate, so its window need not hold the server's periodic work and can be
// short enough to fall between the host's interruptions: it stalls a vCPU
// for 3–10 ms some thirty times a second in a bad minute, hardly at all in
// a good one, and a tail quantile over a slice of seconds reads mostly
// that. Replayed over the recorded ops of twelve sets of ten runs, the
// quartiles of ten runs' p95 lay 4–27% of the median apart with this
// statistic (13% on average) against 6–38% (19%) with the best of ten
// slices and 5–56% (29%) with the median slice; p50 4–15% (8%) against
// 4–17% (10%) and 5–31% (10%). At the closed loops' rates a window holds 150–400 ops, at
// the open loop's three or four bursts.
const latWindow = 250 * time.Millisecond

// minWindowOps is how many ops a window must hold for its quantiles to
// count; windows at the edges of a run and inside a long stall hold fewer.
const minWindowOps = 20

// quietWindows returns the lowest decile, over the run's sliding windows,
// of the windows' p50 and p95 latency in ms.
func quietWindows(r *runResult) (p50, p95 float64) {
	type op struct{ t0, lat time.Duration }
	var ops []op
	for _, rec := range r.recs {
		if rec.ok { // a failed op has no latency to report; it is counted in failed
			ops = append(ops, op{rec.t0.Sub(r.start), rec.done.Sub(rec.t0)})
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].t0 < ops[j].t0 })
	var p50s, p95s, lats []float64
	lo, hi := 0, 0
	for from := time.Duration(0); from+latWindow <= r.dur; from += latWindow / 4 {
		for lo < len(ops) && ops[lo].t0 < from {
			lo++
		}
		for hi < len(ops) && ops[hi].t0 < from+latWindow {
			hi++
		}
		if hi-lo < minWindowOps {
			continue
		}
		lats = lats[:0]
		for _, o := range ops[lo:hi] {
			lats = append(lats, ms(o.lat))
		}
		sort.Float64s(lats)
		p50s = append(p50s, lats[(len(lats)-1)/2])
		p95s = append(p95s, lats[(len(lats)-1)*95/100])
	}
	if len(p50s) == 0 {
		return 0, 0
	}
	sort.Float64s(p50s)
	sort.Float64s(p95s)
	return p50s[(len(p50s)-1)/10], p95s[(len(p95s)-1)/10]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// usage is a reading of the process's cumulative cost counters.
type usage struct {
	at       time.Time
	cpu      time.Duration // user + system
	alloc    uint64        // bytes ever allocated
	gcCycles uint32
	gcPause  time.Duration
}

func (u usage) sub(o usage) usage {
	return usage{at: u.at, cpu: u.cpu - o.cpu, alloc: u.alloc - o.alloc, gcCycles: u.gcCycles - o.gcCycles, gcPause: u.gcPause - o.gcPause}
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad who argument
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    m.TotalAlloc,
		gcCycles: m.NumGC,
		gcPause:  time.Duration(m.PauseTotalNs),
	}
}

// endToEndMetrics reduces a measured run to the end-to-end table; usages
// holds a reading of the process's counters every rateStep. Throughput
// counts an op in the window it completed in; CPU time is divided by the
// ops that completed between the two readings; latency is grouped by where
// it starts (send time, or due time in the open loop), so an op a stall
// delayed is charged to the window the stall hit.
func endToEndMetrics(r *runResult, usages []usage, setup time.Duration) map[string]float64 {
	var done []time.Time // when each correct op completed, in order
	for _, rec := range r.recs {
		if rec.ok {
			done = append(done, rec.done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	// between counts the ops that completed in (from, to].
	between := func(from, to time.Time) float64 {
		after := func(t time.Time) int { return sort.Search(len(done), func(i int) bool { return done[i].After(t) }) }
		return float64(after(to) - after(from))
	}
	ops := float64(max(1, len(done)))

	// The whole run's rates, then every window's; a run shorter than a
	// window has only the former.
	var whole usage
	if len(usages) > 0 {
		whole = usages[len(usages)-1].sub(usages[0])
	}
	throughput := between(r.start, r.start.Add(r.dur)) / r.dur.Seconds()
	cpuPerOp := ms(whole.cpu) / ops
	for from := r.start; !from.Add(rateWindow).After(r.start.Add(r.dur)); from = from.Add(rateStep) {
		throughput = max(throughput, between(from, from.Add(rateWindow))/rateWindow.Seconds())
	}
	const perWindow = int(rateWindow / rateStep)
	for i := perWindow; i < len(usages); i++ {
		from, to := usages[i-perWindow], usages[i]
		if n := between(from.at, to.at); n > 0 && to.at.Sub(from.at) >= rateWindow/2 {
			cpuPerOp = min(cpuPerOp, ms(to.cpu-from.cpu)/n)
		}
	}
	if r.late != nil {
		// An open loop completes what it is offered, window by window,
		// unless a backlog outlives the run: its rate is what it completed
		// over the time that took, drain included.
		throughput = ops / r.drained.Sub(r.start).Seconds()
	}
	p50, p95 := quietWindows(r)
	return map[string]float64{
		"throughput_qps":  throughput,
		"latency_p50_ms":  p50,
		"latency_p95_ms":  p95,
		"cpu_ms_per_op":   cpuPerOp,
		"alloc_kb_per_op": float64(whole.alloc) / 1024 / ops,
		"setup_s":         setup.Seconds(),
	}
}

// counters is a reading of the engine's exported counter snapshots.
type counters struct {
	cache   cache.Stats
	flight  cache.FlightStats
	partial core.PartialAggStats
	snaps   int64
}

func (s *stack) readCounters() counters {
	c := counters{cache: s.eng.CacheStats(), flight: s.eng.FlightStats(), partial: s.eng.PartialStats()}
	if s.wal != nil {
		c.snaps = s.wal.Info().Snapshots
	}
	return c
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// identityTolerance is how far the four server-stamped terms of an op's
// latency — submit ingress, queue wait, exec, result lag, each ≥ 0 on the
// shared wall clock — may sum from the latency the client's monotonic
// clock measured.
const identityTolerance = 50 * time.Microsecond

// identityHolds checks submit_ingress + queue_wait + exec + result_lag ==
// latency for one op.
func identityHolds(rec *opRec) bool {
	if rec.finished.IsZero() {
		return false
	}
	// Wall-clock readings of the client's own instants (Round strips the
	// monotonic reading), so all four terms are on one clock.
	sent, done := rec.sent.Round(0), rec.done.Round(0)
	terms := []time.Duration{
		rec.submitted.Sub(sent),
		rec.started.Sub(rec.submitted),
		rec.finished.Sub(rec.started),
		done.Sub(rec.finished),
	}
	var sum time.Duration
	for _, t := range terms {
		if t < 0 {
			return false
		}
		sum += t
	}
	diff := sum - rec.done.Sub(rec.sent)
	return -identityTolerance <= diff && diff <= identityTolerance
}

// layerMetrics reduces a traced run to the per-layer table. refQPS is the
// throughput of the same workload with tracing off.
func layerMetrics(s *stack, r *runResult, c0, c1 counters, proc procStats, refQPS, tracedQPS float64, pr probes) map[string]float64 {
	tr := s.tr
	ops := float64(max(1, len(r.recs)))
	m := map[string]float64{}

	// client + server: from the op records and the handler spans.
	queue, exec, lat := NewHist(), NewHist(), NewHist()
	var ingress, lag time.Duration
	var polls, refused, identityOK int
	for _, rec := range r.recs {
		polls += rec.polls
		if rec.refused {
			refused++
		}
		lat.Record(int64(rec.done.Sub(rec.t0)))
		if rec.finished.IsZero() {
			continue
		}
		ingress += rec.submitted.Sub(rec.sent.Round(0))
		lag += rec.done.Round(0).Sub(rec.finished)
		queue.Record(int64(rec.started.Sub(rec.submitted)))
		exec.Record(int64(rec.finished.Sub(rec.started)))
		if identityHolds(rec) {
			identityOK++
		}
	}
	m["client.submit_ingress_ms"] = ms(ingress) / ops
	m["client.result_lag_ms"] = ms(lag) / ops
	m["client.polls_per_op"] = float64(polls) / ops
	m["client.latency_p99_ms"] = ms(time.Duration(lat.Quantile(0.99)))
	if r.late != nil {
		m["client.late_ms_p99"] = ms(time.Duration(r.late.Quantile(0.99)))
	}
	m["client.identity_ok_share"] = float64(identityOK) / ops
	m["server.queue_wait_p50_ms"] = ms(time.Duration(queue.Quantile(0.50)))
	m["server.queue_wait_p95_ms"] = ms(time.Duration(queue.Quantile(0.95)))
	m["server.exec_p50_ms"] = ms(time.Duration(exec.Quantile(0.50)))
	m["server.exec_p95_ms"] = ms(time.Duration(exec.Quantile(0.95)))
	m["server.refused_per_op"] = float64(refused) / ops
	m["server.backlog_end"] = float64(r.backlog)

	mean := func(name string) float64 {
		total, n := tr.byName(name)
		if n == 0 {
			return 0
		}
		return ms(total) / float64(n)
	}
	m["server.http_submit_ms"] = mean(spanServerSubmit)
	m["server.http_poll_ms"] = mean(spanServerPoll)
	var pollBytes, pollN, commitRecs, commits int64
	for i := range tr.spans {
		switch sp := &tr.spans[i]; sp.name {
		case spanServerPoll:
			pollBytes += sp.bytes
			pollN++
		case spanChargeCommit, spanJobCommit, spanAuditCommit:
			commitRecs += sp.children
			commits++
		}
	}
	m["server.poll_resp_bytes"] = float64(pollBytes) / float64(max(1, pollN))

	// video + sandbox: seam counters and spans.
	frames, read := tr.videoTotals()
	busy, execs := tr.byName(spanSandbox)
	m["video.frames_per_op"] = float64(frames) / ops
	m["video.read_ms_per_op"] = ms(read) / ops
	m["sandbox.execs_per_op"] = float64(execs) / ops
	m["sandbox.busy_ms_per_op"] = ms(busy) / ops

	// cache + rel: counter deltas.
	cs0, cs1 := c0.cache, c1.cache
	hits, misses := cs1.Hits-cs0.Hits, cs1.Misses-cs0.Misses
	sHits, sMisses := cs1.StateHits-cs0.StateHits, cs1.StateMisses-cs0.StateMisses
	diskHits := (cs1.DiskHits - cs0.DiskHits) + (cs1.DiskStateHits - cs0.DiskStateHits)
	puts := (cs1.Puts - cs0.Puts) + (cs1.StatePuts - cs0.StatePuts)
	m["cache.table_hit_ratio"] = ratio(hits, hits+misses)
	m["cache.state_hit_ratio"] = ratio(sHits, sHits+sMisses)
	m["cache.disk_hits_per_op"] = float64(diskHits) / ops
	m["cache.promotions_per_op"] = float64(cs1.Promotions-cs0.Promotions) / ops
	m["cache.evictions_per_op"] = float64(cs1.Evictions-cs0.Evictions) / ops
	m["cache.puts_per_op"] = float64(puts) / ops
	m["cache.flight_followers_per_op"] = float64(c1.flight.Followers-c0.flight.Followers) / ops
	folds := c1.partial.Folds - c0.partial.Folds
	merges := c1.partial.Merges - c0.partial.Merges
	plans := c1.partial.Plans - c0.partial.Plans
	declined := c1.partial.Declined - c0.partial.Declined
	m["rel.folds_per_op"] = float64(folds) / ops
	m["rel.merges_per_op"] = float64(merges) / ops
	m["rel.pushdown_declined_share"] = ratio(declined, declined+plans)

	// store: seam spans and the WAL file's byte count.
	_, fsyncs := tr.byName(spanFsync)
	m["store.commits_per_op"] = float64(commits) / ops
	m["store.charge_commit_ms"] = mean(spanChargeCommit)
	m["store.job_commit_ms"] = mean(spanJobCommit)
	m["store.records_per_fsync"] = float64(commitRecs) / float64(max(1, fsyncs))
	m["store.fsyncs_per_op"] = float64(fsyncs) / ops
	m["store.wal_bytes_per_op"] = float64(tr.walBytes.Load()) / ops
	m["store.snapshots"] = float64(c1.snaps - c0.snaps)

	// Probes: unit costs of the layers no seam reaches, and the estimate
	// count × unit cost gives for each of them per op.
	for k, v := range pr.unit {
		m[k] = v
	}
	ramStateHits := sHits - (cs1.DiskStateHits - cs0.DiskStateHits)
	ramHits := hits - (cs1.DiskHits - cs0.DiskHits)
	cacheEst := (float64(ramHits)*pr.unit["cache.get_table_us"] +
		float64(ramStateHits)*pr.unit["cache.get_state_us"] +
		float64(puts)*pr.unit["cache.put_us"] +
		float64(diskHits)*pr.unit["cache.disk_get_us"]) / 1000 / ops
	tableEst := (float64(execs)*pr.unit["table.from_rows_us"] +
		float64(cs1.DiskPuts-cs0.DiskPuts)*pr.unit["table.encode_us"] +
		float64(cs1.DiskHits-cs0.DiskHits)*pr.unit["table.decode_us"]) / 1000 / ops
	relEst := (float64(folds)*pr.unit["rel.fold_us"] +
		float64(merges)*pr.unit["rel.merge_us"] +
		float64(sHits)*pr.unit["rel.decode_state_us"] +
		float64(plans)*pr.unit["rel.finalize_us"] +
		float64(declined)*pr.unit["rel.select_materialised_us"]) / 1000 / ops
	dpEst := (float64(s.w.camsPerOp)*pr.unit["dp.reserve_us"] +
		pr.releasesPerOp*pr.unit["dp.laplace_ns"]/1000) / 1000
	m["cache.est_ms_per_op"] = cacheEst
	m["table.est_ms_per_op"] = tableEst
	m["rel.est_ms_per_op"] = relEst
	m["dp.est_ms_per_op"] = dpEst

	// core: what exec spent outside the sandbox and the charge commit,
	// and how much of that the estimates above do not explain.
	execTotal, _ := tr.byName(spanExec)
	engineSelf := ms(tr.selfTime(spanExec)) / ops
	m["core.engine_self_ms"] = engineSelf
	if execTotal > 0 {
		harnessEst := float64(execs) * pr.unit["sandbox.harness_us"] / 1000 / ops
		m["core.unattributed_share"] = (engineSelf - harnessEst - cacheEst - tableEst - relEst - dpEst) / (ms(execTotal) / ops)
	}

	m["process.heap_inuse_peak_mb"] = float64(proc.heapPeak) / (1 << 20)
	m["process.gc_cycles"] = float64(proc.usage.gcCycles) / proc.dur.Seconds()
	m["process.gc_pause_ms"] = ms(proc.usage.gcPause) / proc.dur.Seconds()
	if refQPS > 0 {
		m["trace.overhead_share"] = 1 - tracedQPS/refQPS
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m
}
