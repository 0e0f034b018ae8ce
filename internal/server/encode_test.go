package server

// The job and result bodies are appended by hand (jsonBuf); the wire
// structs below are their reference. encoding/json's Encoder over these
// structs defines the bytes — the differential test and FuzzWireEncode
// hold the appenders to them — and the HTTP tests decode responses
// into them.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"privid/internal/core"
	"privid/internal/table"
)

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

// toJobJSON is the reference for a snapshot of the job info, whose
// result, when it has one, is res.
func toJobJSON(info JobInfo, res *core.Result, withResult bool) jobJSON {
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
	if withResult && res != nil {
		j.Result = toResultJSON(res)
	}
	return j
}

// wireFloats are the float64s whose encodings differ in form: both
// zeros, the 'e'-notation thresholds, and the unencodable ones.
var wireFloats = []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-7, 1e21, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)}

// wireStrings need escaping in every way AppendJSONString knows.
var wireStrings = []string{"", "alice", "<a&b>", "é\u2028\u2029", "\xff", "tab\there\"\\", "q-000001"}

// randJob builds a job of random shape: every optional field present or
// absent, and the given string, float and time mixed in among the
// tricky ones. A job with a result is done, holding the result's
// encoding, and res is the result; a job without one is in any other
// state.
func randJob(rng *rand.Rand, s string, f float64, tm time.Time) (info JobInfo, res *core.Result) {
	str := func() string {
		if rng.Intn(4) == 0 {
			return s
		}
		return wireStrings[rng.Intn(len(wireStrings))]
	}
	num := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return f
		case 1:
			return wireFloats[rng.Intn(len(wireFloats))]
		}
		return rng.NormFloat64() * 100
	}
	at := func() time.Time {
		switch rng.Intn(4) {
		case 0:
			return tm
		case 1:
			return time.Time{}
		}
		return time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).In(time.FixedZone("z", 3600*(rng.Intn(25)-12)))
	}
	val := func() table.Value {
		if rng.Intn(2) == 0 {
			return table.S(str())
		}
		return table.N(num())
	}
	info = JobInfo{ID: str(), Analyst: str(), State: JobState(str()), Error: str(),
		SubmittedAt: at(), StartedAt: at(), FinishedAt: at()}
	if rng.Intn(4) == 0 {
		if info.State == JobDone {
			info.State = JobFailed
		}
		return info, nil
	}
	res = &core.Result{EpsilonSpent: num()}
	for range rng.Intn(3) {
		res.Releases = append(res.Releases, core.ReleaseResult{
			Desc: str(), Key: val(), HasKey: rng.Intn(2) == 0, Value: num(),
			ArgmaxKey: val(), RawArgmaxKey: val(), IsArgmax: rng.Intn(3) == 0, NoiseScale: num(), Epsilon: num(),
			Sensitivity: num(), Raw: num(), RawSet: rng.Intn(2) == 0, Begin: at(), End: at(),
		})
	}
	for range rng.Intn(3) {
		res.Cameras = append(res.Cameras, core.CameraBudget{Camera: str(), EpsilonSpent: num(), Remaining: num()})
	}
	info.State, info.Result = JobDone, encodeResult(res)
	return info, res
}

// checkWire requires every body built from info, whose result is res —
// the job with and without its result, the result alone, a two-job
// listing — to be exactly what encoding/json's Encoder writes for the
// reference struct, and to be empty when the Encoder refuses it; and
// the durable job record's result to be the result body's bytes.
func checkWire(t *testing.T, info JobInfo, res *core.Result) {
	t.Helper()
	check := func(what string, fill func(*jsonBuf), ref any) {
		t.Helper()
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(ref) // writes nothing on error
		rec := httptest.NewRecorder()
		writeBody(rec, 200, fill)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s of %+v:\n got %q\nwant %q", what, info, got, want.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
	}
	check("job", func(j *jsonBuf) { j.job(info, false) }, toJobJSON(info, res, false))
	check("job with result", func(j *jsonBuf) { j.job(info, true) }, toJobJSON(info, res, true))
	check("listing", func(j *jsonBuf) {
		j.b = append(j.b, '[')
		j.job(info, false)
		j.b = append(j.b, ',')
		j.job(info, false)
		j.b = append(j.b, ']')
	}, []jobJSON{toJobJSON(info, res, false), toJobJSON(info, res, false)})
	if res == nil {
		return
	}
	check("result", func(j *jsonBuf) { j.doneResult(info.Result) }, toResultJSON(res))
	// The terminal job record holds the result body's bytes, and no
	// result where the Encoder refuses it.
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(toResultJSON(res))
	if got := terminalRecord(info).Result; !bytes.Equal(got, bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
		t.Fatalf("terminal record of %+v:\n got %q\nwant %q", info, got, want.Bytes())
	}
}

func TestWireBodiesMatchEncodingJSON(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		info, res := randJob(rand.New(rand.NewSource(seed)), "", 0, time.Time{})
		checkWire(t, info, res)
	}
}

// FuzzWireEncode is the differential fuzz target of the wire appenders:
// random jobs and results carrying the fuzzer's string, float and time
// (years past 9999 and before 0 included) against encoding/json.
func FuzzWireEncode(f *testing.F) {
	f.Add(int64(1), "alice", 0.5, int64(1615788000), int64(0))
	f.Add(int64(2), "<\xff\u2028>", math.Inf(1), int64(-62135596801), int64(999999999))
	f.Add(int64(3), "", 1e-7, int64(253402300800), int64(1))
	f.Fuzz(func(t *testing.T, seed int64, s string, x float64, sec, nsec int64) {
		info, res := randJob(rand.New(rand.NewSource(seed)), s, x, time.Unix(sec, nsec).UTC())
		checkWire(t, info, res)
	})
}
