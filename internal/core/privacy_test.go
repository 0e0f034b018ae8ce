package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

// TestSensitivityBoundsNeighboringVideos is the system's core
// soundness property (Theorem 6.1): for ANY (ρ, K)-bounded event, the
// raw (pre-noise) query output on a video with the event and on the
// neighboring video without it differ by at most the sensitivity the
// engine computed. We verify it empirically across randomized events,
// chunk sizes and aggregations, with an adversarially cooperative
// "analyst" whose processing dumps as much about the event as it can.
func TestSensitivityBoundsNeighboringVideos(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	queries := []struct {
		name string
		sel  string
	}{
		{"count", `SELECT COUNT(*) FROM t;`},
		{"sum", `SELECT SUM(range(n, 0, 7)) FROM t;`},
		{"grouped", `SELECT tag, COUNT(*) FROM t GROUP BY tag WITH KEYS ["x", "y"];`},
	}
	for trial := 0; trial < 25; trial++ {
		// Random policy and chunking.
		rhoSec := 1 + rng.Intn(60)
		k := 1 + rng.Intn(3)
		chunkSec := []int{5, 10, 30}[rng.Intn(3)]
		pol := policy.Policy{Rho: time.Duration(rhoSec) * time.Second, K: k}

		// A background scene plus one (ρ, K)-bounded event: K segments
		// of duration <= ρ each.
		mkScene := func(withEvent bool) *scene.Scene {
			s := &scene.Scene{Name: "n", W: 500, H: 500, FPS: 10,
				Start:  time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC),
				Frames: 12000} // 20 minutes
			erng := rand.New(rand.NewSource(int64(trial)))
			// Background: a handful of long-lived benign entities.
			for i := 0; i < 5; i++ {
				enter := int64(erng.Intn(2000))
				exit := enter + int64(3000+erng.Intn(4000))
				if exit > s.Frames {
					exit = s.Frames
				}
				s.Ents = append(s.Ents, &scene.Entity{
					ID: i, Class: video.Person,
					Appearances: []scene.Appearance{{
						Enter: enter, Exit: exit,
						Traj: scene.NewPath(enter, exit, 20, 20, 1,
							scene.Waypoint{T: 0, P: geom.Point{X: 50 + float64(i*80), Y: 250}}),
					}},
				})
			}
			if withEvent {
				e := &scene.Entity{ID: 1000, Class: video.Person}
				pos := int64(erng.Intn(3000))
				for seg := 0; seg < k; seg++ {
					durF := int64(1 + erng.Intn(rhoSec*10))
					enter := pos
					exit := enter + durF
					if exit > s.Frames {
						break
					}
					e.Appearances = append(e.Appearances, scene.Appearance{
						Enter: enter, Exit: exit,
						Traj: scene.NewPath(enter, exit, 20, 20, 1,
							scene.Waypoint{T: 0, P: geom.Point{X: 250, Y: 100}}),
					})
					pos = exit + int64(erng.Intn(2000)) + 1
				}
				if len(e.Appearances) > 0 {
					s.Ents = append(s.Ents, e)
				}
			}
			s.BuildIndex()
			return s
		}

		// The adversarial analyst: if the event's entity is visible
		// ANYWHERE in the chunk, fill every output row with maximal
		// values; otherwise report benign data.
		adversary := func(chunk *video.Chunk) []table.Row {
			sawEvent := false
			for f := int64(0); f < chunk.Len(); f++ {
				for _, o := range chunk.Frame(f).Objects {
					if o.EntityID == 1000 {
						sawEvent = true
					}
				}
			}
			var rows []table.Row
			for i := 0; i < 3; i++ {
				if sawEvent {
					rows = append(rows, table.Row{table.N(7), table.S("x")})
				} else {
					rows = append(rows, table.Row{table.N(1), table.S("y")})
				}
			}
			return rows
		}

		for _, q := range queries {
			src := fmt.Sprintf(`
SPLIT cam BEGIN 3-15-2021/6:00am END 3-15-2021/6:20am
  BY TIME %dsec STRIDE 0sec INTO c;
PROCESS c USING adv TIMEOUT 5sec PRODUCING 3 ROWS
  WITH SCHEMA (n:NUMBER=0, tag:STRING="") INTO t;
%s`, chunkSec, q.sel)
			prog, err := query.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			run := func(withEvent bool) []ReleaseResult {
				e := New(Options{Seed: 1, Evaluation: true})
				if err := e.RegisterCamera(CameraConfig{
					Name:    "cam",
					Source:  mkScene(withEvent).Source("cam"),
					Policy:  pol,
					Epsilon: 1e9,
				}); err != nil {
					t.Fatal(err)
				}
				if err := e.Registry().Register("adv", adversary); err != nil {
					t.Fatal(err)
				}
				res, err := e.Execute(prog)
				if err != nil {
					t.Fatal(err)
				}
				return res.Releases
			}
			with := run(true)
			without := run(false)
			if len(with) != len(without) {
				t.Fatalf("release counts differ")
			}
			for i := range with {
				diff := math.Abs(with[i].Raw - without[i].Raw)
				if diff > with[i].Sensitivity+1e-9 {
					t.Errorf("trial %d %s (rho=%ds K=%d c=%ds) release %q: |Δoutput|=%v exceeds sensitivity %v",
						trial, q.name, rhoSec, k, chunkSec, with[i].Desc, diff, with[i].Sensitivity)
				}
			}
		}
	}
}

// TestNaNCannotSteerRelease is the neighbour pair for an executable
// that emits NaN in its summed column exactly when a person is in the
// chunk. The declared range must hold for NaN as for any other value:
// with or without people, every SUM and AVG release — on the pushdown
// fold and on the materialised path — is finite and the result has the
// same wire shape, so the NaN reveals nothing.
func TestNaNCannotSteerRelease(t *testing.T) {
	nanIfPerson := func(chunk *video.Chunk) []table.Row {
		for f := int64(0); f < chunk.Len(); f++ {
			for _, o := range chunk.Frame(f).Objects {
				if o.Class.Private() {
					return []table.Row{{table.N(math.NaN())}}
				}
			}
		}
		return []table.Row{{table.N(1)}}
	}
	prog, err := query.Parse(`
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/7:00am
  BY TIME 30sec STRIDE 0sec INTO c;
PROCESS c USING nan TIMEOUT 5sec PRODUCING 1 ROWS WITH SCHEMA (v:NUMBER=0) INTO t;
SELECT SUM(range(v, 0, 1)) FROM t;
SELECT AVG(range(v, 0, 1)) FROM t;
SELECT SUM(range(v, 0, 1)) FROM (SELECT bin(chunk, 600) AS b, v FROM t) GROUP BY b;`)
	if err != nil {
		t.Fatal(err)
	}
	// shape is the result's JSON with every number zeroed.
	var shape func(v any) any
	shape = func(v any) any {
		switch x := v.(type) {
		case float64:
			return 0.0
		case []any:
			for i := range x {
				x[i] = shape(x[i])
			}
		case map[string]any:
			for k := range x {
				x[k] = shape(x[k])
			}
		}
		return v
	}
	run := func(people int) any {
		e := newTestEngine(t, countScene(people), policy.Policy{Rho: 30 * time.Second, K: 1}, 1e6)
		if err := e.Registry().Register("nan", nanIfPerson); err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Releases {
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) || math.IsNaN(r.Raw) || math.IsInf(r.Raw, 0) {
				t.Errorf("%d people: %s released %v (raw %v)", people, r.Desc, r.Value, r.Raw)
			}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%d people: result does not encode: %v", people, err)
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		return shape(v)
	}
	if with, without := run(60), run(0); !reflect.DeepEqual(with, without) {
		t.Errorf("wire shapes differ:\n with people: %v\n without:     %v", with, without)
	}
}

// TestProcessFailureInjection verifies the Appendix-B failure
// semantics end to end: executables that panic, time out, or
// over-produce still yield a well-formed table (default rows,
// truncation) and a successful query.
func TestProcessFailureInjection(t *testing.T) {
	s := countScene(10)
	cases := []struct {
		name string
		fn   func(chunk *video.Chunk) []table.Row
		// expectPerChunk is the rows each chunk contributes.
		expectPerChunk float64
	}{
		{
			name:           "panics",
			fn:             func(*video.Chunk) []table.Row { panic("boom") },
			expectPerChunk: 1, // the default row
		},
		{
			name: "overproduces",
			fn: func(*video.Chunk) []table.Row {
				rows := make([]table.Row, 1000)
				for i := range rows {
					rows[i] = table.Row{table.N(1)}
				}
				return rows
			},
			expectPerChunk: 20, // truncated to max_rows
		},
		{
			name: "wrong schema",
			fn: func(*video.Chunk) []table.Row {
				return []table.Row{{table.S("not-a-number"), table.S("extra"), table.N(9)}}
			},
			expectPerChunk: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Seed: 1, Evaluation: true})
			if err := e.RegisterCamera(CameraConfig{
				Name:    "camA",
				Source:  s.Source("camA"),
				Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
				Epsilon: 100,
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.Registry().Register("counter", tc.fn); err != nil {
				t.Fatal(err)
			}
			prog, err := query.Parse(countQuery)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Execute(prog)
			if err != nil {
				t.Fatal(err)
			}
			// 1 hour of 30s chunks = 120 chunks.
			want := tc.expectPerChunk * 120
			if res.Releases[0].Raw != want {
				t.Errorf("raw=%v, want %v", res.Releases[0].Raw, want)
			}
		})
	}
}

// TestTimeoutFailureInjection runs separately because it relies on
// wall-clock timeouts.
func TestTimeoutFailureInjection(t *testing.T) {
	s := countScene(3)
	e := New(Options{Seed: 1, Evaluation: true})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  s.Source("camA"),
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("slow", func(*video.Chunk) []table.Row {
		time.Sleep(50 * time.Millisecond)
		return []table.Row{{table.N(1)}, {table.N(1)}}
	}); err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(countQuery, "USING counter TIMEOUT 5sec", "USING slow TIMEOUT 0.01sec", 1)
	src = strings.Replace(src, "END 03-15-2021/7:00am", "END 03-15-2021/6:05am", 1)
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Every chunk times out -> exactly one default row each: 10 chunks
	// of 30s in 5 minutes.
	if res.Releases[0].Raw != 10 {
		t.Errorf("raw=%v, want 10 default rows", res.Releases[0].Raw)
	}
}
