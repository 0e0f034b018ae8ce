package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"privid/internal/core"
	"privid/internal/obs"
	"privid/internal/table"
)

// API is the HTTP/JSON facade over one engine and its scheduler.
//
// Routes (all JSON):
//
//	GET  /v1/healthz                   liveness probe
//	POST /v1/queries                   submit {analyst, query} → 202 {id}
//	GET  /v1/queries?analyst=A         list jobs (newest last)
//	GET  /v1/queries/{id}              job status (+result when done), held
//	GET  /v1/queries/{id}/result       result only, held; 409 while pending
//	GET  /v1/queries/{id}/trace        span tree (409 pending, 404 recovered)
//	GET  /v1/cameras                   registered cameras
//	GET  /v1/cameras/{name}/budget     remaining ε at ?frame=N (default 0)
//	GET  /v1/executables               registered PROCESS executables
//	GET  /v1/audit                     owner's audit log
//	GET  /v1/stats                     scheduler load + cache + per-camera ε
//	GET  /v1/state                     durable-store status (WAL/snapshots)
//	GET  /v1/metrics                   Prometheus text exposition (not JSON)
//
// A held route waits for an unfinished job to finish, for at most
// pollHold or until the request ends, then answers with the job's state
// as it stands; a finished job answers at once. No other route holds.
type API struct {
	engine *core.Engine
	sched  *Scheduler
	mux    *http.ServeMux
}

// NewAPI returns the HTTP handler serving engine through sched.
func NewAPI(engine *core.Engine, sched *Scheduler) *API {
	a := &API{engine: engine, sched: sched, mux: http.NewServeMux()}
	a.mux.HandleFunc("GET /v1/healthz", a.health)
	a.mux.HandleFunc("POST /v1/queries", a.submit)
	a.mux.HandleFunc("GET /v1/queries", a.listJobs)
	a.mux.HandleFunc("GET /v1/queries/{id}", a.getJob)
	a.mux.HandleFunc("GET /v1/queries/{id}/result", a.getResult)
	a.mux.HandleFunc("GET /v1/queries/{id}/trace", a.getTrace)
	a.mux.HandleFunc("GET /v1/cameras", a.listCameras)
	a.mux.HandleFunc("GET /v1/cameras/{name}/budget", a.getBudget)
	a.mux.HandleFunc("GET /v1/executables", a.listExecutables)
	a.mux.HandleFunc("GET /v1/audit", a.getAudit)
	a.mux.HandleFunc("GET /v1/stats", a.getStats)
	a.mux.HandleFunc("GET /v1/state", a.getState)
	a.mux.HandleFunc("GET /v1/metrics", a.getMetrics)
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// jsonContentType is every JSON response's Content-Type, shared so
// setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// writeJSON writes v as compact JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// jsonBuf appends the job and result bodies with the obs.AppendJSON*
// appenders, keeping the first error. The bytes are exactly what
// encoding/json's Encoder writes for the wire structs the tests keep as
// the reference, field order, omitempty and omitzero included.
type jsonBuf struct {
	b   []byte
	err error
}

// maxPooledBody caps the buffers bodyPool keeps, so one long job
// listing does not stay pinned.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(jsonBuf) }}

// getBuf and putBuf lend out an emptied pooled buffer and take it back.
func getBuf() *jsonBuf {
	j := bodyPool.Get().(*jsonBuf)
	j.b, j.err = j.b[:0], nil
	return j
}

func putBuf(j *jsonBuf) {
	if cap(j.b) <= maxPooledBody {
		bodyPool.Put(j)
	}
}

// writeBody writes the body fill appends into a pooled buffer. An
// unencodable value (NaN, ±Inf, a time RFC 3339 cannot hold) leaves the
// body empty after the status line, as the Encoder does.
func writeBody(w http.ResponseWriter, status int, fill func(j *jsonBuf)) {
	j := getBuf()
	fill(j)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if j.err == nil {
		j.b = append(j.b, '\n')
		_, _ = w.Write(j.b)
	}
	putBuf(j)
}

func (j *jsonBuf) str(key, s string) { j.b = obs.AppendJSONString(append(j.b, key...), s) }

func (j *jsonBuf) num(key string, f float64) {
	var err error
	j.b, err = obs.AppendJSONFloat(append(j.b, key...), f)
	j.err = cmp.Or(j.err, err)
}

func (j *jsonBuf) time(key string, t time.Time) {
	var err error
	j.b, err = obs.AppendJSONTime(append(j.b, key...), t)
	j.err = cmp.Or(j.err, err)
}

// value appends a table.Value as {type, str, num}.
func (j *jsonBuf) value(key string, v table.Value) {
	j.b = append(j.b, key...)
	j.str(`{"type":`, v.Type().String())
	j.str(`,"str":`, v.Str())
	if n := v.Num(); n != 0 {
		j.num(`,"num":`, n)
	}
	j.b = append(j.b, '}')
}

// encodeResult returns a finished query's outcome in its wire form, the
// one encoding of it: the job record commits these bytes and every poll
// of the job writes them. nil where the encoder refuses res.
func encodeResult(res *core.Result) []byte {
	j := getBuf()
	j.result(res)
	var b []byte
	if j.err == nil {
		b = bytes.Clone(j.b)
	}
	putBuf(j)
	return b
}

// errUnencodable stands for the encoder's refusal of a done job's
// result, which encodeResult leaves nil.
var errUnencodable = errors.New("server: result not encodable as JSON")

// doneResult appends a done job's result bytes. A done job without any
// holds a result the encoder refused, so the body stays empty.
func (j *jsonBuf) doneResult(b []byte) {
	if b == nil {
		j.err = cmp.Or(j.err, errUnencodable)
	}
	j.b = append(j.b, b...)
}

// result appends a finished query's outcome: every noised release, the
// ε spent and each camera's share of it. Raw and RawSet are set only in
// Evaluation mode, never in a real deployment.
func (j *jsonBuf) result(res *core.Result) {
	j.b = append(j.b, `{"releases":[`...)
	for i, r := range res.Releases {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.str(`{"desc":`, r.Desc)
		if r.HasKey {
			j.value(`,"key":`, r.Key)
		}
		j.num(`,"value":`, r.Value)
		if r.IsArgmax {
			j.value(`,"argmax_key":`, r.ArgmaxKey)
			j.b = append(j.b, `,"is_argmax":true`...)
		}
		j.num(`,"epsilon":`, r.Epsilon)
		j.num(`,"sensitivity":`, r.Sensitivity)
		j.num(`,"noise_scale":`, r.NoiseScale)
		if r.Raw != 0 {
			j.num(`,"raw":`, r.Raw)
		}
		if r.RawSet {
			j.b = append(j.b, `,"raw_set":true`...)
		}
		if !r.Begin.IsZero() {
			j.time(`,"begin":`, r.Begin)
		}
		if !r.End.IsZero() {
			j.time(`,"end":`, r.End)
		}
		j.b = append(j.b, '}')
	}
	j.num(`],"epsilon_spent":`, res.EpsilonSpent)
	if len(res.Cameras) > 0 {
		j.b = append(j.b, `,"cameras":[`...)
		for i, cb := range res.Cameras {
			if i > 0 {
				j.b = append(j.b, ',')
			}
			j.str(`{"camera":`, cb.Camera)
			j.num(`,"epsilon_spent":`, cb.EpsilonSpent)
			j.num(`,"remaining":`, cb.Remaining)
			j.b = append(j.b, '}')
		}
		j.b = append(j.b, ']')
	}
	j.b = append(j.b, '}')
}

// job appends a job snapshot; the result only once the job is done and
// when withResult asks for it.
func (j *jsonBuf) job(info JobInfo, withResult bool) {
	j.str(`{"id":`, info.ID)
	j.str(`,"analyst":`, info.Analyst)
	j.str(`,"state":`, string(info.State))
	if info.Error != "" {
		j.str(`,"error":`, info.Error)
	}
	j.time(`,"submitted_at":`, info.SubmittedAt)
	if !info.StartedAt.IsZero() {
		j.time(`,"started_at":`, info.StartedAt)
	}
	if !info.FinishedAt.IsZero() {
		j.time(`,"finished_at":`, info.FinishedAt)
	}
	if withResult && info.State == JobDone {
		j.b = append(j.b, `,"result":`...)
		j.doneResult(info.Result)
	}
	j.b = append(j.b, '}')
}

func (a *API) health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// submitRequest is the POST /v1/queries body.
type submitRequest struct {
	Analyst string `json:"analyst"`
	Query   string `json:"query"`
}

// maxSubmitBytes caps a submission body; a query program is text and
// never legitimately approaches this.
const maxSubmitBytes = 1 << 20

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := a.sched.Submit(req.Analyst, req.Query)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrAnalystBusy), errors.Is(err, ErrQueueFull):
			status = http.StatusTooManyRequests
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	info, _ := a.sched.Job(id)
	writeBody(w, http.StatusAccepted, func(j *jsonBuf) { j.job(info, false) })
}

func (a *API) listJobs(w http.ResponseWriter, r *http.Request) {
	infos := a.sched.Jobs(r.URL.Query().Get("analyst"))
	writeBody(w, http.StatusOK, func(j *jsonBuf) {
		j.b = append(j.b, '[')
		for i, info := range infos {
			if i > 0 {
				j.b = append(j.b, ',')
			}
			j.job(info, false)
		}
		j.b = append(j.b, ']')
	})
}

var errUnknownJob = errors.New("server: unknown job id")

func (a *API) getJob(w http.ResponseWriter, r *http.Request) {
	info, ok := a.sched.await(r.Context(), r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	writeBody(w, http.StatusOK, func(j *jsonBuf) { j.job(info, true) })
}

func (a *API) getResult(w http.ResponseWriter, r *http.Request) {
	info, ok := a.sched.await(r.Context(), r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	switch info.State {
	case JobDone:
		writeBody(w, http.StatusOK, func(j *jsonBuf) { j.doneResult(info.Result) })
	case JobFailed:
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{
			"state": string(JobFailed), "error": info.Error,
		})
	default:
		writeJSON(w, http.StatusConflict, map[string]string{
			"state": string(info.State), "error": "result not ready",
		})
	}
}

// getTrace renders the span tree recorded for a terminal job
// (obs.SpanTree) on request. Traces are not persisted: a job recovered
// after a restart has none and answers 404.
func (a *API) getTrace(w http.ResponseWriter, r *http.Request) {
	info, ok := a.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	if !info.Finished() {
		writeJSON(w, http.StatusConflict, map[string]string{
			"state": string(info.State), "error": "trace not ready",
		})
		return
	}
	body, err := info.Trace.JSON()
	if body == nil {
		writeError(w, http.StatusNotFound, cmp.Or(err, errors.New("server: no trace recorded for job")))
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// getMetrics serves the engine registry (which the scheduler's
// instruments also live in) in Prometheus text exposition format. 404
// when the engine was built with DisableMetrics.
func (a *API) getMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := a.engine.Metrics()
	if reg == nil {
		writeError(w, http.StatusNotFound, errors.New("server: metrics disabled"))
		return
	}
	w.Header().Set("Content-Type", metricsContentType)
	_, _ = reg.WriteTo(w)
}

// cameraJSON is the wire form of one registered camera.
type cameraJSON struct {
	Name       string   `json:"name"`
	Width      float64  `json:"width"`
	Height     float64  `json:"height"`
	FPS        float64  `json:"fps"`
	Start      string   `json:"start"`
	Frames     int64    `json:"frames"`
	Epsilon    float64  `json:"epsilon"`
	RhoSeconds float64  `json:"rho_seconds"`
	K          int      `json:"k"`
	Masks      []string `json:"masks,omitempty"`
	Schemes    []string `json:"schemes,omitempty"`
}

func (a *API) listCameras(w http.ResponseWriter, _ *http.Request) {
	infos := a.engine.Cameras()
	out := make([]cameraJSON, len(infos))
	for i, ci := range infos {
		out[i] = cameraJSON{
			Name:       ci.Name,
			Width:      ci.W,
			Height:     ci.H,
			FPS:        float64(ci.FPS),
			Start:      ci.Start.Format(time.RFC3339),
			Frames:     ci.Frames,
			Epsilon:    ci.Epsilon,
			RhoSeconds: ci.Policy.Rho.Seconds(),
			K:          ci.Policy.K,
			Masks:      ci.Masks,
			Schemes:    ci.Schemes,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) getBudget(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	frame := int64(0)
	if q := r.URL.Query().Get("frame"); q != "" {
		f, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		frame = f
	}
	remaining, err := a.engine.Remaining(name, frame)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"camera": name, "frame": frame, "remaining": remaining,
	})
}

func (a *API) listExecutables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.engine.Registry().Names())
}

func (a *API) getAudit(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.engine.AuditLog())
}

// getState serves the durable-store status; core.StateInfo is its wire
// form.
func (a *API) getState(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.engine.StateInfo())
}

// getStats serves scheduler load and per-camera budget standing beside
// the engine's counter groups, which core renders from the same table
// as their metric families.
func (a *API) getStats(w http.ResponseWriter, _ *http.Request) {
	out := map[string]any{"scheduler": a.sched.Stats(), "cameras": a.engine.CameraBudgets()}
	for name, group := range a.engine.StatsGroups() {
		out[name] = group
	}
	writeJSON(w, http.StatusOK, out)
}
