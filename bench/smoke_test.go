package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestSmoke is the benchmark's own CI: every workload at one-second
// scale, measured and traced. A wrong answer, a refused op, a broken
// ledger identity, a failed WAL read-back or a broken four-term latency
// identity all surface as result errors.
func TestSmoke(t *testing.T) {
	names := map[string]bool{}
	for _, d := range declared() {
		names[d.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := runWorkload(w, 1, time.Second, traceBoth, false)
			for _, e := range r.Errors {
				t.Error(e)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%d of %d ops failed", r.Failed, r.Attempted)
			}
			for name := range names {
				if _, ok := r.Metrics[name]; !ok {
					t.Errorf("declared metric %s was not emitted", name)
				}
			}
			for name := range r.Metrics {
				if !names[name] {
					t.Errorf("emitted metric %s is not declared", name)
				}
			}
			for _, d := range endToEnd {
				if r.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, r.Metrics[d.Name])
				}
			}
			// Warm workloads must not reach the sandbox or the video source
			// once warmed; cold ones must.
			execs := r.Metrics["sandbox.execs_per_op"]
			switch w.name {
			case "durable_small", "warm_wide", "disk_fleet":
				if execs != 0 || r.Metrics["video.frames_per_op"] != 0 {
					t.Errorf("sandbox.execs_per_op = %v, video.frames_per_op = %v on a warm workload", execs, r.Metrics["video.frames_per_op"])
				}
			default:
				if execs == 0 {
					t.Error("sandbox.execs_per_op = 0 on a cold workload")
				}
			}
			if commits := r.Metrics["store.commits_per_op"]; (commits > 0) != w.durable {
				t.Errorf("store.commits_per_op = %v with durable = %v", commits, w.durable)
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package
// and to the limits of the contract it is written to.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract allows exactly 6", len(keys))
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, workload.go says %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n%+v\n%+v", doc.PerLayer, perLayer)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range declared() {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %+v: bad or repeated name, or bad unit", d)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("setup_s present: %v; %d end-to-end, %d per-layer metrics", hasSetup, len(endToEnd), len(perLayer))
	}
}

// TestSelfTimeUsesUnionOfChildren: overlapping children (parallel
// shards) must not be subtracted twice, and a child is charged only
// while its parent ran.
func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	tr := &tracer{}
	tr.add("parent", 1, 0, 1, 0, 100)
	tr.add("child", 2, 1, 1, 10, 30)
	tr.add("child", 3, 1, 1, 20, 50)  // overlaps the first: union is [10,50)
	tr.add("child", 4, 1, 1, 70, 120) // clipped to the parent: [70,100)
	tr.add("child", 5, 9, 1, 0, 100)  // someone else's child
	if got := tr.selfTime("parent"); got != 30 {
		t.Errorf("self time %d, want 100 − 40 − 30 = 30", got)
	}
}

// TestWrongAnswerIsCaught: the command's exit status rests on this.
func TestWrongAnswerIsCaught(t *testing.T) {
	op := &opSpec{kind: stmtCount, want: []wantRel{{raw: 5}}}
	job := func(raw, value float64) *jobMsg {
		var j jobMsg
		body := map[string]any{"state": "done", "result": map[string]any{"releases": []map[string]any{
			{"value": value, "raw": raw, "raw_set": true, "epsilon": queryEps, "noise_scale": 1.0},
		}}}
		b, _ := json.Marshal(body)
		if err := json.Unmarshal(b, &j); err != nil {
			t.Fatal(err)
		}
		return &j
	}
	if msg := checkAnswer(op, job(5, 5.5)); msg != "" {
		t.Errorf("right answer rejected: %s", msg)
	}
	if msg := checkAnswer(op, job(6, 6)); msg == "" {
		t.Error("raw 6 accepted against ground truth 5")
	}
	if msg := checkAnswer(op, job(5, 500)); msg == "" {
		t.Error("noised value 495 scales from raw accepted")
	}
}

// TestQuietWindows: a stretch of the run the host disturbed must not set
// the latency quantiles, and a tail every window has must.
func TestQuietWindows(t *testing.T) {
	r := &runResult{start: time.Now(), dur: 2 * time.Second}
	for i := 0; i < 2000; i++ {
		t0 := r.start.Add(time.Duration(i) * time.Millisecond)
		lat := time.Millisecond
		if i%10 == 0 {
			lat = 5 * time.Millisecond // every window's slowest tenth
		}
		if i >= 500 && i < 1500 {
			lat *= 10 // the disturbed second
		}
		r.recs = append(r.recs, &opRec{t0: t0, done: t0.Add(lat), ok: true})
	}
	if p50, p95 := quietWindows(r); p50 != 1 || p95 != 5 {
		t.Errorf("p50 %v ms, p95 %v ms; want 1 and 5", p50, p95)
	}
}
