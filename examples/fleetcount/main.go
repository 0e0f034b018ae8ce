// Fleetcount: one cross-camera query over a three-camera fleet — the
// paper's §8 "how many people crossed any of these intersections"
// shape — submitted through the HTTP API so the per-camera budget
// report in the JSON result is visible end to end.
//
// It demonstrates the three multi-camera guarantees:
//
//  1. Sharded execution: `SPLIT campus, highway, urban ... INTO fleet`
//     fans the per-camera shards out across the worker pool, so the
//     3-camera query costs about one camera's wall-clock.
//  2. Trusted provenance: every PROCESS row carries the implicit
//     camera column, so `GROUP BY camera WITH KEYS [...]` releases one
//     per-camera count whose sensitivity is only that camera's ΔP and
//     whose charge hits only that camera's ledger.
//  3. Atomic admission: a fleet query that includes a camera with an
//     exhausted budget is denied as a whole — the healthy cameras are
//     charged nothing.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"privid"
)

const window = 30 * time.Minute

// fleetQuery counts chunk-level pedestrian observations fleet-wide and
// per camera in one program. The camera column is engine-stamped
// (trusted), so listing the camera names with WITH KEYS is safe: the
// analyst already knows which cameras they queried.
const fleetQuery = `
SPLIT campus, highway, urban
  BEGIN 3-15-2021/6:00am END 3-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO fleet;
PROCESS fleet USING headcount TIMEOUT 5sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT SUM(range(n, 0, 40)) FROM t CONSUMING 0.5;
SELECT camera, COUNT(*) FROM t
  GROUP BY camera WITH KEYS ["campus", "highway", "urban"]
  CONSUMING 0.5;`

func main() {
	// --- Video owner side -------------------------------------------
	engine := privid.New(privid.Options{Seed: 42})
	for _, cam := range []struct {
		name    string
		profile privid.Profile
		epsilon float64
	}{
		{"campus", privid.CampusProfile(), 10},
		{"highway", privid.HighwayProfile(), 10},
		{"urban", privid.UrbanProfile(), 10},
		// A fourth camera whose owner grants almost no budget: any
		// fleet query touching it is denied atomically.
		{"depot", privid.CampusProfile(), 0.01},
	} {
		err := engine.RegisterCamera(privid.CameraConfig{
			Name:    cam.name,
			Source:  privid.NewSceneCamera(cam.name, cam.profile, 7, window),
			Policy:  privid.Policy{Rho: time.Minute, K: 2},
			Epsilon: cam.epsilon,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// --- Analyst side ------------------------------------------------
	err := engine.Registry().Register("headcount", func(chunk *privid.Chunk) []privid.Row {
		n := 0
		for _, o := range chunk.Frame(chunk.Len() / 2).Objects {
			if o.EntityID >= 0 {
				n++
			}
		}
		return []privid.Row{{privid.N(float64(n))}}
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Serve it over HTTP ------------------------------------------
	sched := privid.NewScheduler(engine, privid.SchedulerOptions{Workers: 2})
	defer sched.Close()
	srv := httptest.NewServer(privid.NewAPIHandler(engine, sched))
	defer srv.Close()

	fmt.Println("== 3-camera fleet count (sharded, one query) ==")
	result := submitAndWait(srv.URL, fleetQuery)
	for _, r := range result.Releases {
		fmt.Printf("  %-28s %8.1f  (ε=%.2g, Δ=%.0f)\n", r.Desc, r.Value, r.Epsilon, r.Sensitivity)
	}
	fmt.Println("  per-camera budgets after the query:")
	for _, cb := range result.Cameras {
		fmt.Printf("    %-8s charged ε=%.2f, remaining %.2f\n", cb.Camera, cb.EpsilonSpent, cb.Remaining)
	}

	// --- Atomic admission --------------------------------------------
	fmt.Println("\n== fleet query including the budget-starved depot camera ==")
	before := remaining(srv.URL, "campus")
	denied := `
SPLIT campus, depot
  BEGIN 3-15-2021/6:00am END 3-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO fleet;
PROCESS fleet USING headcount TIMEOUT 5sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.5;`
	if _, errMsg := submit(srv.URL, denied); errMsg != "" {
		fmt.Printf("  denied as a whole: %s\n", errMsg)
	} else {
		log.Fatal("expected the depot query to be denied")
	}
	after := remaining(srv.URL, "campus")
	fmt.Printf("  campus budget before/after the denial: %.2f / %.2f (nothing charged)\n", before, after)
}

// resultPayload mirrors the server's result JSON.
type resultPayload struct {
	Releases []struct {
		Desc        string      `json:"desc"`
		Key         interface{} `json:"key"`
		Value       float64     `json:"value"`
		Epsilon     float64     `json:"epsilon"`
		Sensitivity float64     `json:"sensitivity"`
	} `json:"releases"`
	EpsilonSpent float64 `json:"epsilon_spent"`
	Cameras      []struct {
		Camera       string  `json:"camera"`
		EpsilonSpent float64 `json:"epsilon_spent"`
		Remaining    float64 `json:"remaining"`
	} `json:"cameras"`
}

// submit posts a query and polls it to a terminal state, returning the
// result or the failure message; the server's bounded hold on each
// poll of an unfinished job paces the loop.
func submit(baseURL, src string) (*resultPayload, string) {
	body, err := json.Marshal(map[string]string{"analyst": "fleet-analyst", "query": src})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var job struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	decode(resp, &job)
	if job.ID == "" {
		return nil, job.Error
	}
	for {
		resp, err := http.Get(baseURL + "/v1/queries/" + job.ID)
		if err != nil {
			log.Fatal(err)
		}
		var status struct {
			State  string         `json:"state"`
			Error  string         `json:"error"`
			Result *resultPayload `json:"result"`
		}
		decode(resp, &status)
		switch status.State {
		case "done":
			return status.Result, ""
		case "failed":
			return nil, status.Error
		}
	}
}

func submitAndWait(baseURL, src string) *resultPayload {
	res, errMsg := submit(baseURL, src)
	if errMsg != "" {
		log.Fatalf("query failed: %s", errMsg)
	}
	return res
}

// remaining fetches one camera's remaining budget at frame 0.
func remaining(baseURL, camera string) float64 {
	resp, err := http.Get(baseURL + "/v1/cameras/" + camera + "/budget?frame=3000")
	if err != nil {
		log.Fatal(err)
	}
	var out struct {
		Remaining float64 `json:"remaining"`
	}
	decode(resp, &out)
	return out.Remaining
}

func decode(resp *http.Response, v interface{}) {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
