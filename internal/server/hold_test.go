package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/core"
	"privid/internal/store"
)

// serve runs one request through the API and returns its status and
// body.
func serve(api *API, r *http.Request) (int, []byte) {
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, r)
	return rec.Code, rec.Body.Bytes()
}

// pollState decodes a job body's state, "" when body is not a job.
func pollState(body []byte) JobState {
	var j struct{ State JobState }
	_ = json.Unmarshal(body, &j)
	return j.State
}

// waitHeld blocks until n goroutines are parked in await's select, so a
// test finishes a job only once its polls are held.
func waitHeld(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		held := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "server.(*Scheduler).await(") {
				held++
			}
		}
		if held >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d polls held", held, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// running submits q and waits until the slow executable has started
// want times in all.
func running(t *testing.T, s *Scheduler, q string, started *atomic.Int64, want int64) string {
	t.Helper()
	id, err := s.Submit("alice", q)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); started.Load() < want; {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	return id
}

// TestPollHoldAnswersWhenJobFinishes: one GET of a running job, whose
// executable is released while the GET is held, answers done with the
// result when the job finishes, before the hold has passed, and the
// result is /result's bytes.
func TestPollHoldAnswersWhenJobFinishes(t *testing.T) {
	e, release, started := newSlowEngine(t)
	s := NewScheduler(e, SchedulerOptions{Workers: 1})
	defer s.Close()
	api := NewAPI(e, s)
	id := running(t, s, slowQuery, started, 1)

	var status int
	var body []byte
	var held time.Duration
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		begin := time.Now()
		status, body = serve(api, httptest.NewRequest(http.MethodGet, "/v1/queries/"+id, nil))
		held = time.Since(begin)
	}()
	waitHeld(t, 1)
	time.Sleep(3 * time.Millisecond)
	close(release)
	<-polled
	if status != http.StatusOK || pollState(body) != JobDone {
		t.Fatalf("held poll: %d %s", status, body)
	}
	if held >= pollHold {
		t.Fatalf("poll held %v: it answered when the hold passed, not when the job finished", held)
	}
	var poll struct{ Result json.RawMessage }
	if err := json.Unmarshal(body, &poll); err != nil {
		t.Fatal(err)
	}
	status, result := serve(api, httptest.NewRequest(http.MethodGet, "/v1/queries/"+id+"/result", nil))
	if status != http.StatusOK || !bytes.Equal(append(poll.Result, '\n'), result) {
		t.Fatalf("poll result %s, /result %d %s", poll.Result, status, result)
	}
}

// TestPollHoldBoundedWhileRunning: a job that outlives the hold is
// answered as running once the hold has passed.
func TestPollHoldBoundedWhileRunning(t *testing.T) {
	e, release, started := newSlowEngine(t)
	s := NewScheduler(e, SchedulerOptions{Workers: 1})
	defer s.Close()
	defer close(release)
	api := NewAPI(e, s)
	id := running(t, s, slowQuery, started, 1)

	begin := time.Now()
	status, body := serve(api, httptest.NewRequest(http.MethodGet, "/v1/queries/"+id, nil))
	held := time.Since(begin)
	if status != http.StatusOK || pollState(body) != JobRunning {
		t.Fatalf("poll: %d %s", status, body)
	}
	if held < pollHold || held > time.Second {
		t.Fatalf("poll held %v, want at least %v and well under 1s", held, pollHold)
	}
}

// TestPollHoldEndsWithRequest: a poll whose request has ended answers
// at once with the job's state.
func TestPollHoldEndsWithRequest(t *testing.T) {
	e, release, started := newSlowEngine(t)
	s := NewScheduler(e, SchedulerOptions{Workers: 1})
	defer s.Close()
	defer close(release)
	api := NewAPI(e, s)
	id := running(t, s, slowQuery, started, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	begin := time.Now()
	status, body := serve(api, httptest.NewRequest(http.MethodGet, "/v1/queries/"+id, nil).WithContext(ctx))
	if held := time.Since(begin); held >= pollHold {
		t.Fatalf("cancelled poll held %v", held)
	}
	if status != http.StatusOK || pollState(body) != JobRunning {
		t.Fatalf("poll: %d %s", status, body)
	}
}

// TestPollHoldResultConflictAfterHold: /result holds like the job
// route, and a job still running after the hold answers 409.
func TestPollHoldResultConflictAfterHold(t *testing.T) {
	e, release, started := newSlowEngine(t)
	s := NewScheduler(e, SchedulerOptions{Workers: 1})
	defer s.Close()
	defer close(release)
	api := NewAPI(e, s)
	id := running(t, s, slowQuery, started, 1)

	begin := time.Now()
	status, body := serve(api, httptest.NewRequest(http.MethodGet, "/v1/queries/"+id+"/result", nil))
	if held := time.Since(begin); held < pollHold || held > time.Second {
		t.Fatalf("/result held %v, want at least %v and well under 1s", held, pollHold)
	}
	if want := `{"error":"result not ready","state":"running"}` + "\n"; status != http.StatusConflict || string(body) != want {
		t.Fatalf("/result: %d %s, want 409 %s", status, body, want)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a poll's
// allocations are the handler's own.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// Allocations of one poll of a terminal job, as measured before the
// hold: a finished job arms no timer and allocates nothing more.
const (
	maxDonePollAllocs      = 1
	maxRecoveredPollAllocs = 1
)

// TestPollHoldTerminalAllocs: a poll of a done job and of a recovered
// one allocates no more than before the hold.
func TestPollHoldTerminalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under the race detector")
	}
	pollAllocs := func(api *API, id string) float64 {
		w := discardWriter{h: http.Header{}}
		r := httptest.NewRequest(http.MethodGet, "/v1/queries/"+id, nil)
		api.ServeHTTP(w, r)
		n := testing.AllocsPerRun(200, func() { api.ServeHTTP(w, r) })
		t.Logf("poll of %s: %v allocations", id, n)
		return n
	}

	engine := newTestEngineWith(t, core.Options{Seed: 1, DisableMetrics: true})
	sched := NewScheduler(engine, SchedulerOptions{Workers: 1})
	defer sched.Close()
	id, err := sched.Submit("alice", testQuery)
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(engine, sched)
	ts := httptest.NewServer(api)
	defer ts.Close()
	if j := pollJob(t, ts.URL, id); j.State != JobDone {
		t.Fatalf("job %s: %s", j.State, j.Error)
	}
	if got := pollAllocs(api, id); got > maxDonePollAllocs {
		t.Errorf("poll of a done job: %v allocations, want at most %d", got, maxDonePollAllocs)
	}

	opts := core.Options{StateDir: t.TempDir(), DisableMetrics: true}
	e, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := &store.JobRecord{ID: "q-000001", Analyst: "a", Query: "q", State: string(JobDone), Result: json.RawMessage(`{"releases":[],"epsilon_spent":0}`)}
	if err := e.StateStore().Commit(store.Record{Job: rec}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = core.Open(opts); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	recovered := NewScheduler(e, SchedulerOptions{Workers: 1})
	defer recovered.Close()
	if info, _ := recovered.Job(rec.ID); info.State != JobDone {
		t.Fatalf("recovered job: %+v", info)
	}
	if got := pollAllocs(NewAPI(e, recovered), rec.ID); got > maxRecoveredPollAllocs {
		t.Errorf("poll of a recovered job: %v allocations, want at most %d", got, maxRecoveredPollAllocs)
	}
}

// TestPollHoldRacesFinishAndPrune: polls held on two jobs that finish
// together, the later pruning the earlier (MaxFinishedJobs 1), each
// answer with the job's terminal snapshot.
func TestPollHoldRacesFinishAndPrune(t *testing.T) {
	e, release, started := newSlowEngineWith(t, core.Options{Seed: 1, Parallelism: 8, MaxFinishedJobs: 1})
	s := NewScheduler(e, SchedulerOptions{Workers: 2, PerAnalystInFlight: 2})
	defer s.Close()
	defer close(release)
	api := NewAPI(e, s)
	const pollers = 4 // per job
	for round := 0; round < 5; round++ {
		var ids []string
		for k := 0; k < 2; k++ {
			// Each job its own minute, so no two share a chunk.
			q := strings.Replace(slowQuery2, "6:01am END 3-15-2021/6:02am",
				fmt.Sprintf("6:%02dam END 3-15-2021/6:%02dam", 2*round+k, 2*round+k+1), 1)
			ids = append(ids, running(t, s, q, started, int64(2*round+k+1)))
		}
		var wg sync.WaitGroup
		for i := 0; i < 2*pollers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				path := "/v1/queries/" + ids[i%2]
				if i%4 >= 2 {
					path += "/result"
				}
				status, body := serve(api, httptest.NewRequest(http.MethodGet, path, nil))
				if status != http.StatusOK || i%4 < 2 && pollState(body) != JobDone {
					t.Errorf("round %d, poll of %s: %d %s", round, path, status, body)
				}
			}()
		}
		waitHeld(t, 2*pollers)
		release <- struct{}{}
		release <- struct{}{}
		wg.Wait()
		if got := len(s.Jobs("")); got != 1 {
			t.Fatalf("round %d: %d jobs retained, want 1", round, got)
		}
	}
}
