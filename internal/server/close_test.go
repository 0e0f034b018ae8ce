package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/core"
	"privid/internal/policy"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

// newSlowEngine registers a camera plus an executable that blocks
// until release is closed, so tests can hold jobs in-flight
// deterministically.
func newSlowEngine(t *testing.T) (e *core.Engine, release chan struct{}, started *atomic.Int64) {
	// Parallelism is explicit: the default (GOMAXPROCS) can be 1 on a
	// small CI machine, which would serialize the blocking executables
	// on the engine-wide sandbox semaphore.
	return newSlowEngineWith(t, core.Options{Seed: 1, Parallelism: 8})
}

// newSlowEngineWith is newSlowEngine over an engine built from opts.
func newSlowEngineWith(t *testing.T, opts core.Options) (e *core.Engine, release chan struct{}, started *atomic.Int64) {
	t.Helper()
	e = core.New(opts)
	s := scene.Generate(scene.Campus(), 1, 10*time.Minute)
	if err := e.RegisterCamera(core.CameraConfig{
		Name:    "campus",
		Source:  s.Source("campus"),
		Policy:  policy.Policy{Rho: time.Minute, K: 2},
		Epsilon: 100,
	}); err != nil {
		t.Fatal(err)
	}
	release = make(chan struct{})
	started = &atomic.Int64{}
	if err := e.Registry().Register("slow", func(chunk *video.Chunk) []table.Row {
		started.Add(1)
		<-release
		return []table.Row{{table.N(1)}}
	}); err != nil {
		t.Fatal(err)
	}
	return e, release, started
}

const slowQuery = `
SPLIT campus BEGIN 3-15-2021/6:00am END 3-15-2021/6:01am
  BY TIME 60sec STRIDE 0sec INTO c;
PROCESS c USING slow TIMEOUT 30sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.01;`

// slowQuery2 covers a different minute than slowQuery: identical
// queries would coalesce on the chunk-execution singleflight (the
// second becomes a follower and never enters the sandbox), and tests
// that need two executions in flight must use distinct chunks.
const slowQuery2 = `
SPLIT campus BEGIN 3-15-2021/6:01am END 3-15-2021/6:02am
  BY TIME 60sec STRIDE 0sec INTO c;
PROCESS c USING slow TIMEOUT 30sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.01;`

// TestCloseWaitsForInFlightJobs: Close must block until running (and
// queued) jobs reach a terminal state, never abandoning them mid-
// execution.
func TestCloseWaitsForInFlightJobs(t *testing.T) {
	e, release, started := newSlowEngine(t)
	s := NewScheduler(e, SchedulerOptions{Workers: 2})
	id1, err := s.Submit("alice", slowQuery)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit("bob", slowQuery2)
	if err != nil {
		t.Fatal(err)
	}
	// Both jobs are in the sandbox, blocked on release.
	deadline := time.Now().Add(10 * time.Second)
	for started.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("jobs never started")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while jobs were still executing")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after jobs finished")
	}
	for _, id := range []string{id1, id2} {
		info, ok := s.Job(id)
		if !ok || !info.Finished() {
			t.Errorf("job %s not terminal after Close: %+v", id, info)
		}
		if info.State != JobDone {
			t.Errorf("job %s = %s (%s)", id, info.State, info.Error)
		}
	}
}

// TestSubmitAfterCloseCleanError: a Submit after Close returns
// ErrClosed — before paying for a parse, and without racing the queue.
func TestSubmitAfterCloseCleanError(t *testing.T) {
	e, release, _ := newSlowEngine(t)
	close(release) // jobs run instantly
	s := NewScheduler(e, SchedulerOptions{Workers: 1})
	s.Close()
	if _, err := s.Submit("alice", slowQuery); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	// Even an unparsable query reports ErrClosed, not a parse error:
	// the scheduler is gone either way.
	if _, err := s.Submit("alice", "garbage ;;;"); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit garbage after close: %v, want ErrClosed", err)
	}
}

// TestSubmitCloseRace hammers Submit from many goroutines while Close
// runs (verify under -race): every submission either succeeds — and
// then its job reaches a terminal state before Close returns — or
// fails with a clean admission error; nothing panics on the closed
// queue.
func TestSubmitCloseRace(t *testing.T) {
	e, release, _ := newSlowEngine(t)
	close(release)
	s := NewScheduler(e, SchedulerOptions{Workers: 4, PerAnalystInFlight: 64, QueueDepth: 64})

	var wg sync.WaitGroup
	var accepted atomic.Int64
	ids := make(chan string, 256)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id, err := s.Submit("alice", slowQuery)
				switch {
				case err == nil:
					accepted.Add(1)
					ids <- id
				case errors.Is(err, ErrClosed), errors.Is(err, ErrAnalystBusy), errors.Is(err, ErrQueueFull):
				default:
					t.Errorf("unexpected submit error: %v", err)
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()
	close(ids)
	// Close drained everything that was accepted.
	for id := range ids {
		info, ok := s.Job(id)
		if !ok || !info.Finished() {
			t.Errorf("accepted job %s not terminal after Close", id)
		}
	}
	// Double Close is safe, including concurrently.
	var wg2 sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg2.Add(1)
		go func() { defer wg2.Done(); s.Close() }()
	}
	wg2.Wait()
	if accepted.Load() == 0 {
		t.Log("no submissions beat Close; race still exercised")
	}
}
