package sim

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"privid/internal/core"
	"privid/internal/harness"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/sandbox"
	"privid/internal/server"
	"privid/internal/store"
	"privid/internal/store/storetest"
	"privid/internal/table"
	"privid/internal/video"
)

// Scenario is one complete simulator run: a fleet, a workload and a
// chaos schedule, all derived from Fleet.Seed.
type Scenario struct {
	Fleet    FleetConfig
	Workload WorkloadConfig
	Chaos    ChaosConfig
	// StateDir holds the WAL (required — restart and shutdown
	// invariants read it back).
	StateDir string
	// DiskCacheDir enables the tier-2 chunk cache (required when
	// Chaos.CacheThrash).
	DiskCacheDir string
}

// opOutcome records one planned op's fate for the invariant checker.
type opOutcome struct {
	Op    op
	JobID string
	// State: done | failed | lost | refused.
	State string
	Err   string
	Job   harness.Job // terminal snapshot when State is done/failed
	// SubmitLossy / FinalLossy bracket the op's lifetime in
	// durability-loss epochs (crashes, plus restarts whose incarnation
	// had a torn WAL — terminal records written under the tear never
	// reached disk). A lost job is legal only if they differ: clean
	// restarts must lose nothing.
	SubmitLossy, FinalLossy int
	Bg                      bool
}

// standingRec is one standing-query release observation.
type standingRec struct {
	Desc   string
	KeyStr string
	Bucket int64 // bin(chunk, binSec) bucket start, unix seconds
	Raw    float64
	RawSet bool
	Value  float64
	Eps    float64
	Scale  float64
	Begin  time.Time
	End    time.Time
}

type standingRunner struct {
	idx  int
	plan standingPlan
	text string

	mu    sync.Mutex
	sq    *core.StandingQuery
	count map[string]int // releaseKey → observations (exactly-once check)
	recs  []standingRec
	errs  []string
}

// Report summarizes a run. Violations double as t.Errorf output; the
// seed reproduces them.
type Report struct {
	Seed             int64
	Cameras          int
	Events           int
	Ops              int
	Done             int
	Failed           int
	Denied           int
	Lost             int
	Refused          int
	BgSubmitted      int
	StandingReleases int
	Restarts         int
	Crashes          int
	TornCommits      int
	Violations       []string
}

type runner struct {
	t   harness.TB
	sc  Scenario
	f   *Fleet
	p   *plan
	rep *Report

	// mu is the stack lock: every op holds RLock across its HTTP
	// calls; chaos restarts take the write lock, so the stack never
	// changes under a request.
	mu      sync.RWMutex
	h       *harness.H
	crashes int
	// lossy counts durability-loss epochs: every crash, plus every
	// restart of an incarnation whose WAL was torn at some point (torn
	// tracks that). Job loss is tolerated only across a lossy epoch.
	lossy int
	torn  bool

	ffMu sync.Mutex
	ff   *storetest.FaultyFile

	hangMu sync.Mutex
	hang   bool

	chaosMu sync.Mutex
	events  []chaosEvent
	opsDone int64

	standing []*standingRunner

	recMu sync.Mutex
	recs  []*opOutcome

	repMu sync.Mutex
}

// Run executes the scenario against a real stack and checks the four
// invariant classes. Violations are reported on t AND returned in the
// report, so a runtime TB (privid-sim) can render them without dying
// on the first one.
func Run(t harness.TB, sc Scenario) *Report {
	f := NewFleet(sc.Fleet)
	p := newPlan(f, sc.Workload, sc.Chaos)
	r := &runner{
		t: t, sc: sc, f: f, p: p,
		events: chaosSchedule(p, sc.Chaos),
		rep:    &Report{Seed: f.Cfg.Seed, Cameras: len(f.Cams), Ops: p.TotalOps},
	}
	for _, cam := range f.Cams {
		r.rep.Events += len(cam.Events)
	}

	cfg := harness.Config{
		StateDir:   sc.StateDir,
		Seed:       f.Cfg.Seed,
		Evaluation: true,
		Scheduler:  server.SchedulerOptions{PerAnalystInFlight: 8},
		Executables: map[string]sandbox.ProcessFunc{
			"simobj":  ObjExecutable(),
			"simhang": r.hangExecutable(),
		},
		WaitTimeout: 90 * time.Second,
		WrapWALFile: func(fl store.File) store.File {
			ff := storetest.Wrap(fl)
			r.ffMu.Lock()
			r.ff = ff
			r.ffMu.Unlock()
			return ff
		},
	}
	for _, cam := range f.Cams {
		cfg.CameraConfigs = append(cfg.CameraConfigs, core.CameraConfig{
			Name:    cam.Name,
			Source:  cam.Source,
			Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
			Epsilon: f.Cfg.Epsilon,
		})
	}
	if sc.DiskCacheDir != "" {
		cfg.DiskCacheDir = sc.DiskCacheDir
	}
	if sc.Chaos.CacheThrash {
		cfg.ChunkCacheBytes = 32 << 10
		cfg.DiskCacheBytes = 128 << 10
		if cfg.DiskCacheDir != "" {
			dir := cfg.DiskCacheDir
			cfg.BeforeBoot = func() { _ = corruptNewestSegment(dir) }
		}
	}

	r.h = harness.Start(t, cfg)
	for i, sp := range p.Standing {
		r.standing = append(r.standing, &standingRunner{
			idx: i, plan: sp,
			text:  sp.standingText(f, p.ChunkSec, p.MaxRows),
			count: map[string]int{},
		})
	}
	r.mu.Lock()
	r.rebuildStanding(make([][]string, len(r.standing)))
	r.mu.Unlock()

	var wg sync.WaitGroup
	for _, ops := range p.Analysts {
		ops := ops
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range ops {
				r.runOp(o)
			}
		}()
	}
	wg.Add(1)
	go func() { // exhaustion probes are a strict serial sequence
		defer wg.Done()
		for _, o := range p.Drain {
			r.runOp(o)
		}
	}()
	var bgRecs []*opOutcome
	var bgMu sync.Mutex
	wg.Add(1)
	go func() { // fire-and-forget background load (chaos only)
		defer wg.Done()
		for _, o := range p.Bg {
			if rec := r.submit(o, true); rec != nil {
				bgMu.Lock()
				bgRecs = append(bgRecs, rec)
				bgMu.Unlock()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for _, sr := range r.standing {
		sr := sr
		for g := 0; g < 2; g++ { // two goroutines race the same schedule
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, at := range sr.plan.AdvanceAt {
					r.advance(sr, at)
				}
			}()
		}
	}
	wg.Wait()

	// Every planned chaos event has fired (thresholds < TotalOps and
	// the op counter reached TotalOps), so the stack is in its final,
	// healthy incarnation. Flush: one clean advance past stream end
	// makes the completeness half of the standing invariant checkable.
	flushAt := r.f.Start.Add(time.Duration(r.f.Cfg.Minutes)*time.Minute + 3*time.Minute)
	for _, sr := range r.standing {
		r.advance(sr, flushAt)
	}
	// Collect the background jobs (their charges count toward acked).
	for _, rec := range bgRecs {
		r.await(rec)
		r.record(rec)
	}

	checkInvariants(r)
	return r.rep
}

// violatef records an invariant violation on the report and on t.
func (r *runner) violatef(format string, args ...any) {
	r.repMu.Lock()
	r.rep.Violations = append(r.rep.Violations, fmt.Sprintf(format, args...))
	r.repMu.Unlock()
	r.t.Errorf("sim: seed %d: "+format, append([]any{r.rep.Seed}, args...)...)
}

// hangExecutable returns rows like the empty executable, but sleeps
// past its query TIMEOUT while the chaos hang flag is up. It is a
// separate executable name so its unclean (timed-out, default-row)
// chunks can never enter the cache under simobj's keys.
func (r *runner) hangExecutable() sandbox.ProcessFunc {
	return func(c *video.Chunk) []table.Row {
		r.hangMu.Lock()
		hung := r.hang
		r.hangMu.Unlock()
		if hung {
			time.Sleep(1500 * time.Millisecond)
		}
		return nil
	}
}

func (r *runner) setHang(v bool) {
	r.hangMu.Lock()
	r.hang = v
	r.hangMu.Unlock()
}

// submit issues the op under the stack read-lock. A nil return means
// the scheduler refused it (recorded).
func (r *runner) submit(o op, bg bool) *opOutcome {
	rec := &opOutcome{Op: o, Bg: bg}
	q := o.queryText(r.f, r.p.ChunkSec, r.p.MaxRows)
	r.mu.RLock()
	h := r.h
	rec.SubmitLossy = r.lossy
	id, status, errMsg := h.TrySubmit(o.Analyst, q)
	r.mu.RUnlock()
	if status != http.StatusAccepted {
		rec.State = "refused"
		rec.Err = errMsg
		return rec
	}
	rec.JobID = id
	return rec
}

// await polls rec's job to a terminal state (or declares it lost). The
// service holds each poll while the job runs, so await needs no sleep.
func (r *runner) await(rec *opOutcome) {
	if rec.State == "refused" {
		return
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		r.mu.RLock()
		h := r.h
		lossy := r.lossy
		j, ok := h.Job(rec.JobID)
		r.mu.RUnlock()
		rec.FinalLossy = lossy
		switch {
		case !ok:
			// Unknown job: legal only when a durability-loss epoch
			// (crash, or restart over a torn WAL) separated submit from
			// this poll — terminal records persist best-effort after
			// becoming poll-visible.
			rec.State = "lost"
			return
		case j.State == "done" || j.State == "failed":
			rec.State = j.State
			rec.Err = j.Error
			rec.Job = j
			return
		}
		if time.Now().After(deadline) {
			rec.State = "failed"
			rec.Err = "sim: poll deadline exceeded"
			return
		}
	}
}

// runOp drives one planned op to completion and ticks the chaos clock.
func (r *runner) runOp(o op) {
	rec := r.submit(o, false)
	r.await(rec)
	r.record(rec)
	r.tickChaos()
}

func (r *runner) record(rec *opOutcome) {
	r.recMu.Lock()
	r.recs = append(r.recs, rec)
	r.recMu.Unlock()
	r.repMu.Lock()
	switch rec.State {
	case "done":
		r.rep.Done++
	case "failed":
		if strings.Contains(rec.Err, "budget exhausted") {
			r.rep.Denied++
		} else {
			r.rep.Failed++
		}
	case "lost":
		r.rep.Lost++
	case "refused":
		r.rep.Refused++
	}
	if rec.Bg {
		r.rep.BgSubmitted++
	}
	r.repMu.Unlock()
}

// tickChaos advances the op counter and fires every chaos event whose
// threshold it crossed. Events are serialized under chaosMu so two
// analysts can't restart the stack concurrently.
func (r *runner) tickChaos() {
	r.chaosMu.Lock()
	defer r.chaosMu.Unlock()
	r.opsDone++
	for len(r.events) > 0 && r.events[0].AtOps <= r.opsDone {
		ev := r.events[0]
		r.events = r.events[1:]
		r.fire(ev)
	}
}

// fire executes one chaos event. Restart/crash take the stack write
// lock: in-flight requests finish first, and every op after sees the
// new incarnation.
func (r *runner) fire(ev chaosEvent) {
	switch ev.Kind {
	case ckHangOn:
		r.setHang(true)
	case ckHangOff:
		r.setHang(false)
	case ckTear:
		r.ffMu.Lock()
		if r.ff != nil {
			r.ff.TearNextWrite(13)
		}
		r.ffMu.Unlock()
		r.mu.Lock()
		r.torn = true // records committed from here on may not survive
		r.mu.Unlock()
		r.repMu.Lock()
		r.rep.TornCommits++
		r.repMu.Unlock()
	case ckHeal:
		r.ffMu.Lock()
		if r.ff != nil {
			r.ff.Heal()
		}
		r.ffMu.Unlock()
	case ckRestart:
		r.mu.Lock()
		keys := r.snapshotStanding()
		if r.torn {
			// Commits failed at some point this incarnation: jobs that
			// finished then were served live but never persisted, so
			// this (otherwise graceful) restart may drop them.
			r.lossy++
			r.torn = false
		}
		r.h.Restart()
		r.rebuildStanding(keys)
		r.mu.Unlock()
		r.repMu.Lock()
		r.rep.Restarts++
		r.repMu.Unlock()
	case ckCrash:
		r.mu.Lock()
		keys := r.snapshotStanding()
		r.ffMu.Lock()
		if r.ff != nil {
			r.ff.FailAll()
		}
		r.ffMu.Unlock()
		r.crashes++
		r.lossy++
		r.torn = false
		r.h.Crash()
		r.rebuildStanding(keys)
		r.mu.Unlock()
		r.repMu.Lock()
		r.rep.Crashes++
		r.repMu.Unlock()
	}
}

// snapshotStanding captures each standing query's released-key set
// (caller holds the stack write lock, so no Advance is in flight).
func (r *runner) snapshotStanding() [][]string {
	keys := make([][]string, len(r.standing))
	for i, sr := range r.standing {
		sr.mu.Lock()
		if sr.sq != nil {
			keys[i] = sr.sq.ReleasedKeys()
		}
		sr.mu.Unlock()
	}
	return keys
}

// rebuildStanding re-creates every standing query against the current
// engine incarnation and restores its released set — the sim-side half
// of standing-query crash recovery. Caller holds the stack write lock.
func (r *runner) rebuildStanding(keys [][]string) {
	for i, sr := range r.standing {
		prog, err := query.Parse(sr.text)
		if err != nil {
			r.t.Fatalf("sim: parse standing query %d: %v", i, err)
		}
		sq, err := r.h.Engine.Standing(prog)
		if err != nil {
			r.t.Fatalf("sim: rebuild standing query %d: %v", i, err)
		}
		if len(keys[i]) > 0 {
			sq.RestoreReleased(keys[i]...)
		}
		sr.mu.Lock()
		sr.sq = sq
		sr.mu.Unlock()
	}
}

// advance steps one standing query to `at` and records every fresh
// release. Two goroutines race the same schedule: the engine must
// release each bucket to exactly one of them.
func (r *runner) advance(sr *standingRunner, at time.Time) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sr.mu.Lock()
	sq := sr.sq
	sr.mu.Unlock()
	res, err := sq.Advance(at)
	if err != nil {
		sr.mu.Lock()
		sr.errs = append(sr.errs, err.Error())
		sr.mu.Unlock()
		return
	}
	if len(res.Releases) == 0 {
		return
	}
	sr.mu.Lock()
	for _, rel := range res.Releases {
		key := rel.Desc + "\x00" + rel.Key.Key()
		sr.count[key]++
		sr.recs = append(sr.recs, standingRec{
			Desc:   rel.Desc,
			KeyStr: rel.Key.Key(),
			Bucket: int64(rel.Key.Num()),
			Raw:    rel.Raw,
			RawSet: rel.RawSet,
			Value:  rel.Value,
			Eps:    rel.Epsilon,
			Scale:  rel.NoiseScale,
			Begin:  rel.Begin,
			End:    rel.End,
		})
	}
	sr.mu.Unlock()
	r.repMu.Lock()
	r.rep.StandingReleases += len(res.Releases)
	r.repMu.Unlock()
}
