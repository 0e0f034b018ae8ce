// Package server is Privid's serving layer: an asynchronous job
// scheduler that runs analyst queries on a worker pool over one
// engine, and an HTTP/JSON API exposing query submission, job polling,
// camera and budget inspection, and the owner's audit log.
//
// The scheduler model is submit → job ID → poll: queries can run for
// minutes (they process video), so a submission is answered as soon as
// the job is queued, and a poll of an unfinished job waits for it at
// most pollHold before answering with its state. Fairness under heavy
// multi-analyst traffic comes from a bounded per-analyst in-flight
// limit — one analyst flooding the queue is refused admission
// (retryable) before it can starve others — while the worker pool
// bounds total engine concurrency. Privacy enforcement stays entirely
// inside the engine: the scheduler adds no privacy semantics of its
// own.
//
// The layer performs no authentication: the analyst name is
// client-supplied, so the in-flight limit is a fairness mechanism
// among honest clients, not a security boundary, and the owner-facing
// endpoints (audit log, stats, other analysts' jobs) are open. A real
// deployment must front the API with authentication that fixes the
// analyst identity and gates owner endpoints; see DESIGN.md
// §"Deployment trust boundary".
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"privid/internal/core"
	"privid/internal/obs"
	"privid/internal/store"
)

// SchedulerOptions configure a Scheduler.
type SchedulerOptions struct {
	// Workers is the worker-pool size (concurrent query executions).
	// 0 uses runtime.GOMAXPROCS(0).
	Workers int
	// PerAnalystInFlight bounds one analyst's queued+running jobs;
	// submissions beyond it are refused with ErrAnalystBusy. 0 uses 4.
	PerAnalystInFlight int
	// QueueDepth bounds the backlog of queued jobs across all
	// analysts; submissions beyond it are refused with ErrQueueFull.
	// 0 uses 256.
	QueueDepth int
	// SlowQueryLog receives one JSON line (obs.SlowEntry) per terminal
	// job whose execution took at least SlowQueryThreshold. nil disables
	// the slow-query log.
	SlowQueryLog io.Writer
	// SlowQueryThreshold is the execution-duration threshold for the
	// slow-query log; non-positive disables it.
	SlowQueryThreshold time.Duration
	// Now overrides the job-timestamp clock (tests only).
	Now func() time.Time
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.PerAnalystInFlight <= 0 {
		o.PerAnalystInFlight = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}

// JobState is the lifecycle state of a submitted query.
type JobState string

const (
	// JobQueued means the job is waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning means a worker is executing the job.
	JobRunning JobState = "running"
	// JobDone means execution succeeded and the result is available.
	JobDone JobState = "done"
	// JobFailed means execution was denied or errored.
	JobFailed JobState = "failed"
)

// JobInfo is a snapshot of one job's state.
type JobInfo struct {
	ID      string
	Analyst string
	Query   string
	State   JobState
	// Error is the failure reason (JobFailed only).
	Error string
	// Result is the query outcome in its wire form (JobDone only): the
	// bytes a poll writes and the durable job record holds. A done job
	// with none holds a result the encoder refused (a NaN, ±Inf, or a
	// time RFC 3339 cannot hold); its poll body is empty.
	Result json.RawMessage
	// Trace is the execution's span tree, set when the job reaches a
	// terminal state. It is kept in memory only: a job recovered after a
	// restart has none.
	Trace       *obs.Trace
	SubmittedAt time.Time
	StartedAt   time.Time // zero until running
	FinishedAt  time.Time // zero until done/failed
}

// Finished reports whether the job has reached a terminal state.
func (j JobInfo) Finished() bool { return j.State == JobDone || j.State == JobFailed }

// Submission errors the API layer maps to retryable HTTP statuses.
var (
	// ErrAnalystBusy means the analyst is at their in-flight limit.
	ErrAnalystBusy = errors.New("server: analyst at in-flight job limit, retry later")
	// ErrQueueFull means the global backlog is at capacity.
	ErrQueueFull = errors.New("server: job queue full, retry later")
	// ErrClosed means the scheduler is shutting down.
	ErrClosed = errors.New("server: scheduler closed")
)

type job struct {
	info JobInfo
	// done is closed once info is terminal; a recovered job has none.
	done chan struct{}
	// prep is the job's program, shared with every job of the same text
	// through the engine's program cache; the worker drops it once it
	// has run, so a finished job holds no program.
	prep *core.Prepared
	// parseStart/parseDur time the submit-side parse so the worker can
	// attach it to the execution trace as a pre-measured span.
	parseStart time.Time
	parseDur   time.Duration
}

// Scheduler runs analyst queries asynchronously on a worker pool over
// one engine. It is safe for concurrent use.
type Scheduler struct {
	engine *core.Engine
	opts   SchedulerOptions
	// store persists terminal jobs (the engine's durable store;
	// store.NullStore when durability is off), so an analyst polling
	// after a server restart still gets their result.
	store store.Store
	queue chan *job
	wg    sync.WaitGroup
	// met holds hot-path instruments in the engine's registry (all
	// no-op when metrics are disabled); slow is the slow-query log (nil
	// when unconfigured).
	met  *schedMetrics
	slow *obs.SlowLog

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string       // submission order, for listing
	inflight map[string]int // analyst → queued+running jobs
	finished int            // terminal jobs currently retained
	// doneTotal/failedTotal are monotonic lifetime counters; the
	// retained-job map alone would undercount once pruning starts.
	doneTotal, failedTotal int64
	// recovered counts terminal jobs adopted from the durable store at
	// startup.
	recovered int64
	// boot is the incarnation epoch embedded in new job IDs. A fresh
	// store mints plain q-NNNNNN IDs (boot 0); a scheduler that
	// recovered any prior records mints q-r<boot>-NNNNNN with boot one
	// past the highest epoch seen. This keeps IDs unique across
	// restarts even when some terminal records were never persisted
	// (e.g. a torn or failing WAL): resuming seq from the highest
	// *recovered* ID alone would re-mint the lost IDs, and a client
	// polling a stale handle would silently get a different job.
	boot   int64
	seq    int64
	closed bool
}

// parseJobID splits a job ID into its boot epoch and sequence number.
// Legacy IDs (q-NNNNNN) are epoch 0; epoch-scoped IDs are
// q-r<boot>-NNNNNN.
func parseJobID(id string) (boot, seq int64, ok bool) {
	rest, found := strings.CutPrefix(id, "q-")
	if !found {
		return 0, 0, false
	}
	if b, tail, dash := strings.Cut(rest, "-"); dash {
		if !strings.HasPrefix(b, "r") {
			return 0, 0, false
		}
		bn, err1 := strconv.ParseInt(b[1:], 10, 64)
		sn, err2 := strconv.ParseInt(tail, 10, 64)
		if err1 != nil || err2 != nil {
			return 0, 0, false
		}
		return bn, sn, true
	}
	sn, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return 0, sn, true
}

// NewScheduler starts a scheduler over the engine. Call Close to drain
// the pool. When the engine has a durable state dir, terminal jobs
// recovered from it become immediately pollable (their results were
// persisted before the previous process exited), and newly finished
// jobs are persisted in turn.
func NewScheduler(engine *core.Engine, opts SchedulerOptions) *Scheduler {
	opts = opts.withDefaults()
	s := &Scheduler{
		engine:   engine,
		opts:     opts,
		store:    engine.StateStore(),
		queue:    make(chan *job, opts.QueueDepth),
		jobs:     map[string]*job{},
		inflight: map[string]int{},
		met:      newSchedMetrics(engine.Metrics()),
		slow:     obs.NewSlowLog(opts.SlowQueryLog, opts.SlowQueryThreshold),
	}
	for _, jr := range engine.RecoveredJobs() {
		s.adoptRecovered(jr)
	}
	s.pruneLocked() // bound recovered history like live history
	if reg := engine.Metrics(); reg != nil {
		s.registerCollectors(reg)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// adoptRecovered installs one persisted terminal job so polls resolve
// across restarts. Called before the workers start, so no locking.
func (s *Scheduler) adoptRecovered(jr store.JobRecord) {
	state := JobState(jr.State)
	if state != JobDone && state != JobFailed {
		return
	}
	if _, dup := s.jobs[jr.ID]; dup {
		return
	}
	info := JobInfo{
		ID:          jr.ID,
		Analyst:     jr.Analyst,
		Query:       jr.Query,
		State:       state,
		Error:       jr.Error,
		SubmittedAt: jr.SubmittedAt,
		StartedAt:   jr.StartedAt,
		FinishedAt:  jr.FinishedAt,
	}
	if state == JobDone {
		// The charge behind this result is durable regardless; a
		// missing or undecodable payload degrades to a resolvable-
		// but-failed job rather than a recovery failure (or a "done"
		// job whose result endpoint would have nothing to serve).
		info.Result = adoptResult(jr.Result)
		switch {
		case len(jr.Result) == 0:
			info.State, info.Error = JobFailed, "server: persisted result missing"
		case info.Result == nil:
			info.State, info.Error = JobFailed, "server: persisted result undecodable"
		}
	}
	s.jobs[jr.ID] = &job{info: info}
	s.order = append(s.order, jr.ID)
	s.finished++
	s.recovered++
	switch info.State {
	case JobDone:
		s.doneTotal++
	case JobFailed:
		s.failedTotal++
	}
	// Resume numbering after the recovered tail and move to a fresh
	// boot epoch, so new IDs can never collide with IDs this store has
	// ever minted — including ones whose records did not survive.
	if bn, sn, ok := parseJobID(jr.ID); ok {
		if bn+1 > s.boot {
			s.boot = bn + 1
		}
		if sn > s.seq {
			s.seq = sn
		}
	}
}

// legacyResult opens a result json.Marshal wrote from a *core.Result,
// Go field names and all, as job records did before they held the wire
// form.
var legacyResult = []byte(`{"Releases":`)

// adoptResult returns a recovered result in its wire form: the record's
// bytes as they are, or a legacy record's decoded and encoded afresh;
// nil when there are none or they do not decode.
func adoptResult(b json.RawMessage) []byte {
	if !bytes.HasPrefix(b, legacyResult) {
		return b
	}
	var res core.Result
	if json.Unmarshal(b, &res) != nil {
		return nil
	}
	return encodeResult(&res)
}

func (s *Scheduler) now() time.Time {
	if s.opts.Now != nil {
		return s.opts.Now()
	}
	return time.Now()
}

// Submit parses and enqueues a query on behalf of an analyst and
// returns its job ID. Parse and validation errors are returned
// synchronously (the query never becomes a job); execution errors —
// including budget denial — surface as JobFailed. Admission is refused
// with ErrAnalystBusy or ErrQueueFull under load.
func (s *Scheduler) Submit(analyst, src string) (string, error) {
	if analyst == "" {
		return "", fmt.Errorf("server: analyst name required")
	}
	// Fast-fail on a closed scheduler before paying for a parse; the
	// authoritative check below re-tests under the lock, so Submit
	// racing Close still gets a clean ErrClosed, never a send on a
	// closed queue.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return "", ErrClosed
	}
	// The parse is timed with the real clock (not opts.Now) because it
	// becomes a span on the execution trace, and traces always use real
	// time (see core.ExecuteTraced).
	parseStart := time.Now()
	prep, err := s.engine.Prepare(src)
	parseDur := time.Since(parseStart)
	s.met.stage("parse", parseDur)
	if err != nil {
		s.met.refused("parse")
		return "", err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.met.refused("closed")
		return "", ErrClosed
	}
	if s.inflight[analyst] >= s.opts.PerAnalystInFlight {
		s.mu.Unlock()
		s.met.refused("busy")
		return "", ErrAnalystBusy
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.met.refused("queue_full")
		return "", ErrQueueFull
	}
	s.seq++
	id := fmt.Sprintf("q-%06d", s.seq)
	if s.boot > 0 {
		id = fmt.Sprintf("q-r%d-%06d", s.boot, s.seq)
	}
	j := &job{
		info: JobInfo{
			ID:          id,
			Analyst:     analyst,
			Query:       src,
			State:       JobQueued,
			SubmittedAt: s.now(),
		},
		done:       make(chan struct{}),
		prep:       prep,
		parseStart: parseStart,
		parseDur:   parseDur,
	}
	s.jobs[j.info.ID] = j
	s.order = append(s.order, j.info.ID)
	s.inflight[analyst]++
	// Reserve the slot under the lock; the buffered send cannot block
	// because queue length was checked above and only Submit sends.
	s.queue <- j
	s.mu.Unlock()
	s.met.submissions.Inc()
	return id, nil
}

// worker executes queued jobs until the queue closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		j.info.State = JobRunning
		j.info.StartedAt = s.now()
		queueWait := j.info.StartedAt.Sub(j.info.SubmittedAt)
		s.mu.Unlock()
		s.met.stage("queue_wait", queueWait)

		// The job's terminal record rides the engine's one commit, after
		// its charges: the job turns done only once the answer and its
		// charge are on disk together, and its polls write the bytes
		// committed.
		var finished time.Time
		var result []byte
		res, tr, err := s.engine.ExecuteTraced(j.prep, func(res *core.Result) *store.JobRecord {
			s.mu.Lock()
			finished = s.now()
			s.mu.Unlock()
			result = encodeResult(res)
			info := j.info // only this worker writes it
			info.State, info.Result, info.FinishedAt = JobDone, result, finished
			return terminalRecord(info)
		})

		// Annotate the finished trace with serving-layer context: the
		// job identity and the submit-side parse as a pre-measured span.
		// Identifiers and durations only — never result values.
		tr.Root().Set("job_id", j.info.ID)
		tr.Root().Set("analyst", j.info.Analyst)
		tr.Root().ChildSpanning("parse", j.parseStart, j.parseDur)

		s.mu.Lock()
		j.prep = nil
		if err != nil {
			j.info.State = JobFailed
			j.info.Error = err.Error()
			j.info.FinishedAt = s.now()
			s.failedTotal++
		} else {
			j.info.State, j.info.Result, j.info.FinishedAt = JobDone, result, finished
			s.doneTotal++
		}
		j.info.Trace = tr
		s.inflight[j.info.Analyst]--
		if s.inflight[j.info.Analyst] == 0 {
			delete(s.inflight, j.info.Analyst)
		}
		s.finished++
		s.pruneLocked()
		info := j.info
		s.mu.Unlock()
		close(j.done)

		// A job whose engine call committed nothing of its own — a plan
		// error, a denial, a failed run or a failed commit — is
		// persisted here, outside the lock. Best-effort: no charge
		// rides on it; a lost record only leaves a post-restart poll
		// unresolved.
		if err != nil {
			_ = s.store.Commit(store.Record{Job: terminalRecord(info)})
		}
		s.recordSlow(info, tr, res, queueWait)
	}
}

// recordSlow writes a slow-query log entry for a terminal job (the log
// itself gates on its threshold; nothing happens when unconfigured).
func (s *Scheduler) recordSlow(info JobInfo, tr *obs.Trace, res *core.Result, queueWait time.Duration) {
	if s.slow == nil {
		return
	}
	e := obs.SlowEntry{
		At:        info.FinishedAt,
		JobID:     info.ID,
		Analyst:   info.Analyst,
		Query:     info.Query,
		State:     string(info.State),
		Error:     info.Error,
		Duration:  info.FinishedAt.Sub(info.StartedAt),
		QueueWait: queueWait,
	}
	if res != nil {
		e.EpsilonSpent = res.EpsilonSpent
	}
	if sd := tr.Tree().StageDurations(); len(sd) > 0 {
		e.Stages = make(map[string]int64, len(sd))
		for name, d := range sd {
			e.Stages[name] = d.Nanoseconds()
		}
	}
	s.slow.Record(e)
}

// terminalRecord converts a terminal job snapshot into its durable
// form; the result is the snapshot's own bytes.
func terminalRecord(info JobInfo) *store.JobRecord {
	return &store.JobRecord{
		ID:          info.ID,
		Analyst:     info.Analyst,
		Query:       info.Query,
		State:       string(info.State),
		Error:       info.Error,
		SubmittedAt: info.SubmittedAt,
		StartedAt:   info.StartedAt,
		FinishedAt:  info.FinishedAt,
		Result:      info.Result,
	}
}

// pruneLocked drops the oldest terminal jobs beyond the engine's
// MaxFinishedJobs (the WAL's bound too) so retained history (query
// text + results) stays bounded. Queued and running jobs are never
// dropped. Only the live jobs submitted before the dropped one move,
// one slot up over it; the rest of the order is resliced in place.
// Caller holds s.mu.
func (s *Scheduler) pruneLocked() {
	for s.finished > s.engine.MaxFinishedJobs() {
		i := 0
		for i < len(s.order) && !s.jobs[s.order[i]].info.Finished() {
			i++
		}
		if i == len(s.order) {
			return
		}
		delete(s.jobs, s.order[i])
		copy(s.order[1:i+1], s.order[:i])
		s.order[0] = ""
		s.order = s.order[1:]
		s.finished--
	}
}

// Job returns a snapshot of one job.
func (s *Scheduler) Job(id string) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return j.info, true
}

// pollHold bounds how long a poll of an unfinished job waits for it to
// finish before answering with the state it is in.
const pollHold = 50 * time.Millisecond

// await returns a snapshot of one job like Job, but first waits for an
// unfinished job to finish, until pollHold passes or ctx ends. A
// terminal job answers at once.
func (s *Scheduler) await(ctx context.Context, id string) (JobInfo, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	if j != nil && !j.info.Finished() {
		s.mu.Unlock()
		hold := time.NewTimer(pollHold)
		select {
		case <-j.done:
		case <-hold.C:
		case <-ctx.Done():
		}
		hold.Stop()
		// j is read through its pointer: pruning may have dropped it
		// from the table once it finished.
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if j == nil {
		return JobInfo{}, false
	}
	return j.info, true
}

// Jobs returns snapshots of every job in submission order, optionally
// filtered to one analyst ("" keeps all).
func (s *Scheduler) Jobs(analyst string) []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.order))
	for _, id := range s.order {
		info := s.jobs[id].info
		if analyst != "" && info.Analyst != analyst {
			continue
		}
		out = append(out, info)
	}
	return out
}

// Stats is a snapshot of scheduler load. Done and Failed are lifetime
// totals (they keep counting after old terminal jobs are pruned), so
// within one process lifetime Queued+Running+Done+Failed equals
// Submitted. After a restart with a durable state dir, Submitted
// resumes from the highest recovered job ID while Done/Failed count
// only the recovered-and-retained jobs, so the identity is approximate
// across restarts.
type Stats struct {
	Workers   int
	Queued    int
	Running   int
	Done      int64
	Failed    int64
	Submitted int64
	// Recovered counts terminal jobs adopted from the durable store at
	// startup (included in Done/Failed).
	Recovered int64
	// SlowQueries counts slow-query log entries written (0 when the log
	// is unconfigured).
	SlowQueries int64
	// ParseCacheHits and ParseCacheMisses count submissions whose
	// program came from the engine's program cache, and those parsed
	// afresh.
	ParseCacheHits, ParseCacheMisses int64
}

// Stats returns a snapshot of scheduler load.
func (s *Scheduler) Stats() Stats {
	hits, misses := s.engine.ParseCacheStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:     s.opts.Workers,
		Submitted:   s.seq,
		Done:        s.doneTotal,
		Failed:      s.failedTotal,
		Recovered:   s.recovered,
		SlowQueries: int64(s.slow.Entries()),

		ParseCacheHits:   int64(hits),
		ParseCacheMisses: int64(misses),
	}
	for _, j := range s.jobs {
		switch j.info.State {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		}
	}
	return st
}

// Close stops accepting submissions, waits for queued and running jobs
// to finish, syncs the slow-query log, and returns. Safe to call more
// than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		_ = s.slow.Sync()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	// Flush the slow-query log after the last worker exits so the tail
	// of a shutdown's entries survives process exit.
	_ = s.slow.Sync()
}
