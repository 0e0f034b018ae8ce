package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"privid/internal/core"
	"privid/internal/table"
)

// API is the HTTP/JSON facade over one engine and its scheduler.
//
// Routes (all JSON):
//
//	GET  /v1/healthz                   liveness probe
//	POST /v1/queries                   submit {analyst, query} → 202 {id}
//	GET  /v1/queries?analyst=A         list jobs (newest last)
//	GET  /v1/queries/{id}              job status (+result when done)
//	GET  /v1/queries/{id}/result       result only; 409 while pending
//	GET  /v1/queries/{id}/trace        span tree (409 pending, 404 none)
//	GET  /v1/cameras                   registered cameras
//	GET  /v1/cameras/{name}/budget     remaining ε at ?frame=N (default 0)
//	GET  /v1/executables               registered PROCESS executables
//	GET  /v1/audit                     owner's audit log
//	GET  /v1/stats                     scheduler load + cache + per-camera ε
//	GET  /v1/state                     durable-store status (WAL/snapshots)
//	GET  /v1/metrics                   Prometheus text exposition (not JSON)
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// valueJSON is the wire form of a table.Value.
type valueJSON struct {
	Type string  `json:"type"`
	Str  string  `json:"str"`
	Num  float64 `json:"num,omitempty"`
}

func toValueJSON(v table.Value) *valueJSON {
	return &valueJSON{Type: v.Type().String(), Str: v.Str(), Num: v.Num()}
}

// releaseJSON is the wire form of one noised data release.
type releaseJSON struct {
	Desc        string     `json:"desc"`
	Key         *valueJSON `json:"key,omitempty"`
	Value       float64    `json:"value"`
	ArgmaxKey   *valueJSON `json:"argmax_key,omitempty"`
	IsArgmax    bool       `json:"is_argmax,omitempty"`
	Epsilon     float64    `json:"epsilon"`
	Sensitivity float64    `json:"sensitivity"`
	NoiseScale  float64    `json:"noise_scale"`
	// Raw is the pre-noise value, present only when the engine runs
	// in Evaluation mode (accuracy studies and the sim harness's
	// ground-truth invariant); never populated in a real deployment.
	Raw    float64 `json:"raw,omitempty"`
	RawSet bool    `json:"raw_set,omitempty"`
	// Begin/End are the release's wall-clock span (the query window
	// for whole-table aggregates, the bucket span for time-bucketed
	// GROUP BY); each touched camera was charged over its queried
	// span clipped to it.
	Begin time.Time `json:"begin,omitzero"`
	End   time.Time `json:"end,omitzero"`
}

// cameraBudgetJSON is the wire form of one camera's share of a query's
// privacy cost.
type cameraBudgetJSON struct {
	Camera string `json:"camera"`
	// EpsilonSpent is what this query charged the camera's ledger.
	EpsilonSpent float64 `json:"epsilon_spent"`
	// Remaining is the minimum budget left on any charged frame, after
	// the charge.
	Remaining float64 `json:"remaining"`
}

// resultJSON is the wire form of a finished query's outcome.
type resultJSON struct {
	Releases     []releaseJSON `json:"releases"`
	EpsilonSpent float64       `json:"epsilon_spent"`
	// Cameras reports per-camera budget impact for cross-camera
	// queries (also present, with one entry, for single-camera ones).
	Cameras []cameraBudgetJSON `json:"cameras,omitempty"`
}

func toResultJSON(res *core.Result) *resultJSON {
	out := &resultJSON{EpsilonSpent: res.EpsilonSpent, Releases: []releaseJSON{}}
	for _, cb := range res.Cameras {
		out.Cameras = append(out.Cameras, cameraBudgetJSON{
			Camera:       cb.Camera,
			EpsilonSpent: cb.EpsilonSpent,
			Remaining:    cb.Remaining,
		})
	}
	for _, r := range res.Releases {
		rj := releaseJSON{
			Desc:        r.Desc,
			Value:       r.Value,
			IsArgmax:    r.IsArgmax,
			Epsilon:     r.Epsilon,
			Sensitivity: r.Sensitivity,
			NoiseScale:  r.NoiseScale,
			Raw:         r.Raw,
			RawSet:      r.RawSet,
			Begin:       r.Begin,
			End:         r.End,
		}
		if r.HasKey {
			rj.Key = toValueJSON(r.Key)
		}
		if r.IsArgmax {
			rj.ArgmaxKey = toValueJSON(r.ArgmaxKey)
		}
		out.Releases = append(out.Releases, rj)
	}
	return out
}

// jobJSON is the wire form of a job snapshot. Result is present only
// once the job is done.
type jobJSON struct {
	ID          string      `json:"id"`
	Analyst     string      `json:"analyst"`
	State       JobState    `json:"state"`
	Error       string      `json:"error,omitempty"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	Result      *resultJSON `json:"result,omitempty"`
}

func toJobJSON(info JobInfo, withResult bool) jobJSON {
	j := jobJSON{
		ID:          info.ID,
		Analyst:     info.Analyst,
		State:       info.State,
		Error:       info.Error,
		SubmittedAt: info.SubmittedAt,
	}
	if !info.StartedAt.IsZero() {
		t := info.StartedAt
		j.StartedAt = &t
	}
	if !info.FinishedAt.IsZero() {
		t := info.FinishedAt
		j.FinishedAt = &t
	}
	if withResult && info.Result != nil {
		j.Result = toResultJSON(info.Result)
	}
	return j
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
	writeJSON(w, http.StatusAccepted, toJobJSON(info, false))
}

func (a *API) listJobs(w http.ResponseWriter, r *http.Request) {
	infos := a.sched.Jobs(r.URL.Query().Get("analyst"))
	out := make([]jobJSON, len(infos))
	for i, info := range infos {
		out[i] = toJobJSON(info, false)
	}
	writeJSON(w, http.StatusOK, out)
}

var errUnknownJob = errors.New("server: unknown job id")

func (a *API) getJob(w http.ResponseWriter, r *http.Request) {
	info, ok := a.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, toJobJSON(info, true))
}

func (a *API) getResult(w http.ResponseWriter, r *http.Request) {
	info, ok := a.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	switch info.State {
	case JobDone:
		if info.Result == nil {
			// Defensive: a done job always carries a result in this
			// process; never nil-deref if an invariant slips.
			writeError(w, http.StatusInternalServerError, errors.New("server: result unavailable"))
			return
		}
		writeJSON(w, http.StatusOK, toResultJSON(info.Result))
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

// getTrace serves the span tree recorded for a terminal job: the raw
// JSON persisted on the job record (obs.SpanTree), so it resolves for
// recovered jobs across restarts too.
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
	if len(info.Trace) == 0 {
		writeError(w, http.StatusNotFound, errors.New("server: no trace recorded for job"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(info.Trace)
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

// auditJSON is the wire form of one audit-log entry.
type auditJSON struct {
	At           time.Time `json:"at"`
	Cameras      []string  `json:"cameras"`
	Releases     int       `json:"releases"`
	EpsilonSpent float64   `json:"epsilon_spent"`
	Denied       bool      `json:"denied,omitempty"`
	Reason       string    `json:"reason,omitempty"`
}

func (a *API) getAudit(w http.ResponseWriter, _ *http.Request) {
	log := a.engine.AuditLog()
	out := make([]auditJSON, len(log))
	for i, e := range log {
		out[i] = auditJSON{
			At:           e.At,
			Cameras:      e.Cameras,
			Releases:     e.Releases,
			EpsilonSpent: e.EpsilonSpent,
			Denied:       e.Denied,
			Reason:       e.Reason,
		}
	}
	writeJSON(w, http.StatusOK, out)
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
