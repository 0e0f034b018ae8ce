package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Client protocol (part of the benchmark's definition): one op is
// POST /v1/queries, then GET /v1/queries/{id} straight after the 202,
// then again after each pollSleep until the job is done or failed.
// Latency runs from just before the POST (closed loop) or from the op's
// due time (open loop) to the last byte of the terminal poll response.
const pollSleep = time.Millisecond

// jobMsg is what the client reads out of the job JSON.
type jobMsg struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
	Result      *struct {
		Releases []struct {
			Key *struct {
				Num float64 `json:"num"`
			} `json:"key"`
			Value      float64 `json:"value"`
			Raw        float64 `json:"raw"`
			RawSet     bool    `json:"raw_set"`
			Epsilon    float64 `json:"epsilon"`
			NoiseScale float64 `json:"noise_scale"`
		} `json:"releases"`
	} `json:"result"`
}

// opRec is the client's record of one op.
type opRec struct {
	spec  *opSpec
	live  *liveOp // traced runs only
	jobID string
	// t0 is where latency starts (send time, or due time in the open
	// loop); sent is just before the POST; done is the last byte of the
	// terminal poll response. All three carry monotonic readings.
	t0, sent, done time.Time
	// Server-side timestamps from the job JSON. Client and server share a
	// process, so they are on the client's wall clock.
	submitted, started, finished time.Time
	polls                        int
	refused                      bool // submit answered other than 202
	ok                           bool // done with the right answer
	err                          string
}

// client is one load-generator connection.
type client struct {
	s       *stack
	tr      *tracer // nil, or recording only while tr.on
	hc      *http.Client
	analyst string
	buf     bytes.Buffer
}

func newClient(s *stack, tr *tracer) *client {
	return &client{
		s:       s,
		tr:      tr,
		analyst: "loadgen",
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1, // one keep-alive connection per client
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) tracing() bool { return c.tr != nil && c.tr.on.Load() }

// roundTrip sends one request and reads the whole response into c.buf
// (valid until the next call). It returns the status and the instant the
// last byte was read. In a traced run it is the client seam: one span
// per request, whose ID travels in a header so the handler seam can name
// it as parent.
func (c *client) roundTrip(method, path string, body []byte, rec *opRec, span string) (int, time.Time, error) {
	req, err := http.NewRequest(method, c.s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, time.Time{}, err
	}
	var id, start int64
	if rec.live != nil {
		id, start = c.tr.nextID.Add(1), c.tr.now()
		req.Header.Set(spanHeader, strconv.FormatInt(rec.live.op, 10)+"/"+strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Time{}, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	at := time.Now()
	_ = resp.Body.Close() // fully read; nothing left to fail
	if rec.live != nil {
		c.tr.add(span, id, rec.live.op, rec.live.op, start, c.tr.since(at))
	}
	return resp.StatusCode, at, err
}

// submit POSTs the op. due is the zero time in a closed loop.
func (c *client) submit(op *opSpec, due time.Time) *opRec {
	rec := &opRec{spec: op}
	body, _ := json.Marshal(map[string]string{"analyst": c.analyst, "query": op.text}) // strings always marshal
	if c.tracing() {
		rec.live = c.tr.begin(c.s.ix, op)
	}
	rec.sent = time.Now()
	rec.t0 = rec.sent
	if !due.IsZero() {
		rec.t0 = due
	}
	status, _, err := c.roundTrip(http.MethodPost, "/v1/queries", body, rec, spanClientSubmit)
	var job jobMsg
	switch {
	case err != nil:
		rec.err = "submit: " + err.Error()
	case status != http.StatusAccepted:
		rec.refused = true
		rec.err = fmt.Sprintf("submit: status %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
	case json.Unmarshal(c.buf.Bytes(), &job) != nil || job.ID == "":
		rec.err = "submit: undecodable 202 body"
	default:
		rec.jobID = job.ID
		rec.submitted = job.SubmittedAt
		if rec.live != nil {
			c.tr.bindJob(rec.live, job.ID)
		}
	}
	if rec.err != "" {
		c.finish(rec)
	}
	return rec
}

// poll GETs the job once and reports whether the op is over.
func (c *client) poll(rec *opRec) bool {
	rec.polls++
	status, at, err := c.roundTrip(http.MethodGet, "/v1/queries/"+rec.jobID, nil, rec, spanClientPoll)
	var job jobMsg
	switch {
	case err != nil:
		rec.err = "poll: " + err.Error()
	case status != http.StatusOK:
		rec.err = fmt.Sprintf("poll: status %d", status)
	case json.Unmarshal(c.buf.Bytes(), &job) != nil:
		rec.err = "poll: undecodable body"
	case job.State == "failed":
		rec.err = "job failed: " + job.Error
	case job.State != "done":
		return false
	default:
		c.s.acks.add(rec.spec) // done means charged, whatever the answer says
		rec.err = checkAnswer(rec.spec, &job)
		rec.ok = rec.err == ""
		if job.StartedAt != nil && job.FinishedAt != nil {
			rec.started, rec.finished = *job.StartedAt, *job.FinishedAt
		}
	}
	rec.done = at
	c.finish(rec)
	return true
}

func (c *client) finish(rec *opRec) {
	if rec.done.IsZero() {
		rec.done = time.Now()
	}
	if rec.live != nil {
		c.tr.end(rec)
	}
}

// do runs one closed-loop op to its terminal state.
func (c *client) do(op *opSpec, due time.Time) *opRec {
	rec := c.submit(op, due)
	for rec.err == "" && !c.poll(rec) {
		time.Sleep(pollSleep)
	}
	return rec
}

// checkAnswer compares a done job with the op's ground truth; "" means
// correct.
func checkAnswer(op *opSpec, job *jobMsg) string {
	if job.Result == nil {
		return "done job carries no result"
	}
	rels := job.Result.Releases
	if len(rels) != len(op.want) {
		return fmt.Sprintf("%d releases, ground truth has %d", len(rels), len(op.want))
	}
	for _, want := range op.want {
		found := false
		for _, r := range rels {
			if op.kind == stmtGrouped && (r.Key == nil || int64(r.Key.Num) != want.bucket) {
				continue
			}
			found = true
			switch {
			case !r.RawSet:
				return "release carries no raw value"
			case r.Raw != want.raw:
				return fmt.Sprintf("raw %v, ground truth %v (window %d–%d)", r.Raw, want.raw, op.begin, op.end)
			case math.Abs(r.Value-r.Raw) > 50*r.NoiseScale:
				return fmt.Sprintf("noised value %v is more than 50 scales (%v) from raw %v", r.Value, r.NoiseScale, r.Raw)
			case r.Epsilon != queryEps:
				return fmt.Sprintf("release consumed ε %v, asked %v", r.Epsilon, queryEps)
			}
			break
		}
		if !found {
			return fmt.Sprintf("no release for bucket %d", want.bucket)
		}
	}
	return ""
}

// runResult is what one load run observed.
type runResult struct {
	recs      []*opRec // ops that ended inside the measured window
	start     time.Time
	dur       time.Duration
	attempted int
	failed    int
	firstErr  string
	// lateness of each open-loop submission: sent − due.
	late *Hist
	// backlog is queued+running jobs at the end of an open-loop window;
	// drained is when its last op ended.
	backlog int
	drained time.Time
}

func (r *runResult) record(rec *opRec) {
	r.recs = append(r.recs, rec)
	r.attempted++
	if !rec.ok {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = rec.err
		}
	}
}

// loadClients is min(2, nproc): the sandbox has two cores and the load
// generator shares them with the server.
func loadClients() int { return min(2, runtime.NumCPU()) }

// runClosed drives the stack with loadClients() closed-loop clients,
// either for dur (ops ending after the deadline are dropped) or, when
// maxOps > 0, for that many ops in total.
func runClosed(s *stack, seed int64, dur time.Duration, maxOps int) *runResult {
	n := loadClients()
	res := &runResult{start: time.Now(), dur: dur}
	deadline := res.start.Add(dur)
	perClient := make([][]*opRec, n)
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(s, s.tr)
			defer c.close()
			c.analyst = fmt.Sprintf("client%d", ci)
			rng := rand.New(rand.NewSource(seed + int64(ci)*7919))
			for i := 0; ; i++ {
				if maxOps > 0 && i >= (maxOps+n-1)/n {
					return
				}
				rec := c.do(s.ops.next(rng), time.Time{})
				if maxOps == 0 && rec.done.After(deadline) {
					return
				}
				perClient[ci] = append(perClient[ci], rec)
			}
		}()
	}
	wg.Wait()
	for _, recs := range perClient {
		for _, rec := range recs {
			res.record(rec)
		}
	}
	if maxOps > 0 {
		res.dur = time.Since(res.start)
	}
	return res
}

// runOpen drives the stack open-loop for dur: every burstEvery, burstSize
// submitters — one connection each, as independent analysts have — send
// one op each, all due at the burst instant, whatever the server's state;
// a poller on its own connection polls every outstanding job once, sleeps
// pollSleep, and starts over, so a job is polled at most as often as a
// closed-loop client would poll it. (A poller that swept without pause spent 15 polls
// and a third of the process's CPU per op, more the slower the server
// ran, which fed back into the latency it was measuring.) Ops are timed
// from their due time, so a stall is charged to every op it delays. (One
// submitter connection could not deliver a burst: at ~0.5 ms per round
// trip its 11th POST left 6 ms late, by which time the first jobs were
// done and no queue had formed.)
func runOpen(s *stack, seed int64, dur time.Duration) *runResult {
	res := &runResult{start: time.Now(), dur: dur, late: NewHist()}
	var mu sync.Mutex // guards outstanding, res
	var outstanding []*opRec
	submitting := true

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // submitters
		defer wg.Done()
		subs := make([]*client, burstSize)
		for i := range subs {
			subs[i] = newClient(s, s.tr)
			defer subs[i].close()
		}
		rng := rand.New(rand.NewSource(seed))
		for k := 0; ; k++ {
			due := res.start.Add(time.Duration(k) * burstEvery)
			if !due.Before(res.start.Add(dur)) {
				break
			}
			time.Sleep(time.Until(due))
			var burst sync.WaitGroup
			for a, c := range subs {
				op := s.ops.next(rng) // drawn in order, so the op sequence depends on the seed alone
				// Every op has its own analyst: independent users, and a stall
				// of a second must not run anyone into the per-analyst
				// in-flight cap (a refusal the workload is not about).
				c.analyst = fmt.Sprintf("analyst%06d", k*burstSize+a)
				burst.Add(1)
				go func() {
					defer burst.Done()
					rec := c.submit(op, due)
					mu.Lock()
					res.late.Record(int64(rec.sent.Sub(due)))
					if rec.err != "" {
						res.record(rec)
					} else {
						outstanding = append(outstanding, rec)
					}
					mu.Unlock()
				}()
			}
			burst.Wait()
		}
		// When the window closes, whatever is still queued or running is
		// the backlog the offered rate left behind.
		time.Sleep(time.Until(res.start.Add(dur)))
		st := s.sched.Stats()
		mu.Lock()
		res.backlog = st.Queued + st.Running
		submitting = false
		mu.Unlock()
	}()
	go func() { // poller
		defer wg.Done()
		c := newClient(s, s.tr)
		defer c.close()
		var sweep []*opRec
		for {
			mu.Lock()
			sweep = append(sweep[:0], outstanding...)
			more := submitting
			mu.Unlock()
			if len(sweep) == 0 && !more {
				return
			}
			for _, rec := range sweep {
				if !c.poll(rec) {
					continue
				}
				mu.Lock()
				for i, o := range outstanding {
					if o == rec {
						outstanding = append(outstanding[:i], outstanding[i+1:]...)
						break
					}
				}
				res.record(rec)
				mu.Unlock()
			}
			time.Sleep(pollSleep)
		}
	}()
	wg.Wait()
	res.drained = time.Now()
	return res
}
