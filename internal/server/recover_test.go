package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"privid/internal/core"
	"privid/internal/table"
	"privid/internal/video"
)

// getBody returns the status and body of a GET.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestLegacyJobRecordsAdopted: a state dir whose job records hold the
// result as json.Marshal wrote a *core.Result (Go field names, as every
// record written before results were kept in their wire form) recovers
// through the engine and the scheduler, and every job serves the poll
// and result bodies recorded in the golden.
func TestLegacyJobRecordsAdopted(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("..", "store", "testdata", "twocommit")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte(`"result":{"Releases":`)) {
			t.Fatalf("%s holds no legacy result", e.Name())
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err := core.Open(core.Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	sched := NewScheduler(e, SchedulerOptions{Workers: 1})
	t.Cleanup(sched.Close)
	ts := httptest.NewServer(NewAPI(e, sched))
	t.Cleanup(ts.Close)

	var got bytes.Buffer
	for _, info := range sched.Jobs("") {
		for _, path := range []string{"/v1/queries/" + info.ID, "/v1/queries/" + info.ID + "/result"} {
			status, body := getBody(t, ts.URL+path)
			fmt.Fprintf(&got, "%s %d %s", path, status, body)
		}
	}
	if got.Len() == 0 {
		t.Fatal("no job recovered")
	}
	golden := filepath.Join("testdata", "twocommit_polls.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("recovered bodies drifted from %s:\ngot:\n%s", golden, got.Bytes())
	}
}

// recordShapes are one SELECT per result shape — a COUNT, a keyed GROUP
// BY, an ARGMAX and a time-bucketed GROUP BY, whose releases carry
// their own spans — each with a fragment its result must hold.
var recordShapes = []struct{ sel, holds string }{
	{`SELECT COUNT(*) FROM t CONSUMING 0.01;`, `"desc":"COUNT(*)"`},
	{`SELECT tag, COUNT(*) FROM t GROUP BY tag WITH KEYS ["even", "odd"] CONSUMING 0.01;`, `"key":{"type":"STRING","str":"odd"}`},
	{`SELECT ARGMAX(tag) FROM t GROUP BY tag WITH KEYS ["even", "odd"] CONSUMING 0.01;`, `"is_argmax":true`},
	{`SELECT COUNT(*) FROM (SELECT bin(chunk, 60) AS b FROM t) GROUP BY b CONSUMING 0.01;`, `"end":"2021-03-15T06:01:00Z"`},
}

// TestRecordEqualsPoll: a done job's durable record holds exactly the
// bytes its poll and its result body serve, for every result shape, with
// and without the Evaluation-mode raw values.
func TestRecordEqualsPoll(t *testing.T) {
	for _, eval := range []bool{false, true} {
		e := newTestEngineWith(t, core.Options{Seed: 1, StateDir: t.TempDir(), Evaluation: eval})
		t.Cleanup(func() { _ = e.Close() })
		if err := e.Registry().Register("tagger", func(chunk *video.Chunk) []table.Row {
			tag := "even"
			if len(chunk.Frame(0).Objects)%2 == 1 {
				tag = "odd"
			}
			return []table.Row{{table.S(tag)}}
		}); err != nil {
			t.Fatal(err)
		}
		sched := NewScheduler(e, SchedulerOptions{Workers: 1})
		t.Cleanup(sched.Close)
		ts := httptest.NewServer(NewAPI(e, sched))
		t.Cleanup(ts.Close)

		polled := map[string][]byte{}
		for _, shape := range recordShapes {
			id, err := sched.Submit("alice", `
SPLIT campus BEGIN 3-15-2021/6:00am END 3-15-2021/6:05am
  BY TIME 30sec STRIDE 0sec INTO c;
PROCESS c USING tagger TIMEOUT 5sec PRODUCING 1 ROWS
  WITH SCHEMA (tag:STRING="") INTO t;
`+shape.sel)
			if err != nil {
				t.Fatal(err)
			}
			if j := pollJob(t, ts.URL, id); j.State != JobDone {
				t.Fatalf("%s: %s %s", shape.sel, j.State, j.Error)
			}
			_, body := getBody(t, ts.URL+"/v1/queries/"+id)
			var poll struct{ Result json.RawMessage }
			if err := json.Unmarshal(body, &poll); err != nil {
				t.Fatal(err)
			}
			_, result := getBody(t, ts.URL+"/v1/queries/"+id+"/result")
			if !bytes.Equal(append(poll.Result, '\n'), result) {
				t.Fatalf("%s: poll result %s, result body %s", shape.sel, poll.Result, result)
			}
			if !bytes.Contains(result, []byte(shape.holds)) || eval != bytes.Contains(result, []byte(`"raw_set":true`)) {
				t.Fatalf("%s (evaluation %v): result %s", shape.sel, eval, result)
			}
			polled[id] = poll.Result
		}
		// The WAL's retained records, those committed since boot included.
		for _, jr := range e.RecoveredJobs() {
			if want, ok := polled[jr.ID]; !ok || !bytes.Equal(jr.Result, want) {
				t.Errorf("job %s record result\n %s\npolled\n %s", jr.ID, jr.Result, want)
			}
			delete(polled, jr.ID)
		}
		if len(polled) != 0 {
			t.Errorf("jobs without a record: %v", polled)
		}
	}
}
