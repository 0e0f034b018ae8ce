package harness_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"privid/internal/harness"
	"privid/internal/store"
	"privid/internal/store/storetest"
)

// writeLog records every write to the WAL file, so a test can take a
// commit's exact bytes.
type writeLog struct {
	store.File
	mu     sync.Mutex
	writes [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, bytes.Clone(p))
	w.mu.Unlock()
	return w.File.Write(p)
}

// TestQueryCommitTornAtEveryCut tears a durable three-camera query's
// one commit — three charges, the audit entry, the job record, written
// with one write — at every record boundary and at every byte of its
// last frame, and recovers each torn log the way a restart does
// (repair, then replay). A prefix may hold charges without their job,
// over-charging; none holds the job without every one of its charges.
func TestQueryCommitTornAtEveryCut(t *testing.T) {
	dir := t.TempDir()
	wl := &writeLog{}
	h := harness.Start(t, harness.Config{StateDir: dir, Cameras: 3, SnapshotEvery: -1,
		WrapWALFile: func(f store.File) store.File { wl.File = f; return wl }})
	if job := h.SubmitWait("alice", harness.CountQuery(0, 2, 0.5)); job.State != "done" {
		t.Fatalf("first job = %+v", job)
	}
	cams := []string{harness.CameraName(0), harness.CameraName(1), harness.CameraName(2)}
	job := h.SubmitWait("alice", fmt.Sprintf(`
SPLIT %s BEGIN 03-15-2021/6:00am END 03-15-2021/6:05am
  BY TIME 30sec STRIDE 0sec INTO fleet;
PROCESS fleet USING one TIMEOUT 5sec PRODUCING 2 ROWS
  WITH SCHEMA (v:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.5;`, strings.Join(cams, ", ")))
	if job.State != "done" {
		t.Fatalf("fleet job = %+v", job)
	}
	wl.mu.Lock()
	commit := wl.writes[len(wl.writes)-1]
	wl.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(dir, "wal-00000000.log"))
	if err != nil || !bytes.HasSuffix(data, commit) {
		t.Fatalf("the WAL does not end with the query's commit (%v)", err)
	}
	prefix := slices.Clip(data[:len(data)-len(commit)])

	// The commit's frames, in order: every charge, the audit entry, the
	// job record.
	var kinds []string
	cuts := []int{0}
	for off := 0; off < len(commit); {
		kinds = append(kinds, string(commit[off+8:off+13]))
		off += 8 + int(binary.LittleEndian.Uint32(commit[off:]))
		cuts = append(cuts, off)
	}
	if want := []string{`{"c":`, `{"c":`, `{"c":`, `{"a":`, `{"j":`}; !slices.Equal(kinds, want) {
		t.Fatalf("commit frames %q, want %q", kinds, want)
	}
	for c := cuts[len(cuts)-2] + 1; c < len(commit); c++ {
		cuts = append(cuts, c)
	}

	// recoverCut replays the log torn after cut bytes of the commit and
	// reports each camera's spent segments and whether the job is back.
	recoverCut := func(cut int) (segs string, hasJob bool) {
		torn := t.TempDir()
		if err := os.WriteFile(filepath.Join(torn, "wal-00000000.log"), append(prefix, commit[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Repair(torn); err != nil {
			t.Fatalf("cut %d: repair: %v", cut, err)
		}
		st, err := store.ReadState(torn, 0)
		if err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		for _, cam := range cams {
			segs += fmt.Sprintf("%s %v\n", cam, st.SpentSegments(cam))
		}
		return segs, slices.ContainsFunc(st.Jobs(), func(jr store.JobRecord) bool { return jr.ID == job.ID })
	}
	charged, _ := recoverCut(len(commit))
	for _, cut := range cuts {
		segs, hasJob := recoverCut(cut)
		if hasJob != (cut == len(commit)) {
			t.Errorf("cut %d of %d: job recovered = %v", cut, len(commit), hasJob)
		}
		if hasJob && segs != charged {
			t.Errorf("cut %d: job recovered without all its charges:\n%s\nwant\n%s", cut, segs, charged)
		}
	}
}

// TestCrashKeepsPolledResult: done jobs' poll and result bodies,
// Evaluation-mode raw values included, are byte-identical after a
// graceful restart and after a kill-style crash — disk failing, no
// graceful close — because each job's record was fsynced with its
// charges before the first poll could see it, and every poll writes
// the committed bytes.
func TestCrashKeepsPolledResult(t *testing.T) {
	var ff *storetest.FaultyFile
	h := harness.Start(t, harness.Config{StateDir: t.TempDir(), Evaluation: true,
		WrapWALFile: func(f store.File) store.File { ff = storetest.Wrap(f); return ff }})
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(h.Srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	bodies := map[string][]byte{}
	for i := range 3 {
		job := h.SubmitWait("alice", harness.CountQuery(2*i, 2*i+3, 0.5))
		if job.State != "done" {
			t.Fatalf("job = %+v", job)
		}
		for _, path := range []string{"/v1/queries/" + job.ID, "/v1/queries/" + job.ID + "/result"} {
			bodies[path] = get(path)
		}
	}
	crash := func() {
		ff.FailAll() // nothing more reaches the disk
		h.Crash()
	}
	for _, stop := range []struct {
		name string
		fn   func()
	}{{"restart", h.Restart}, {"crash", crash}} {
		stop.fn()
		for path, want := range bodies {
			if got := get(path); !bytes.Equal(got, want) {
				t.Errorf("%s after %s:\n got %s\nwant %s", path, stop.name, got, want)
			}
		}
	}
}

// TestFsyncFailureOutcome: a commit whose fsync fails tells the analyst
// what a restart will show. When the rollback (truncate to the last
// acked offset, then fsync) succeeds, the job is withheld for good:
// after a crash neither it, its result nor its charge recovers. When the
// rollback fails too, the job's error says the outcome is unknown until
// restart, its charge stays spent, and after the crash the job recovers
// done with its result. The WAL refuses later commits either way.
func TestFsyncFailureOutcome(t *testing.T) {
	for _, tc := range []struct {
		name      string
		truncate  bool // the rollback's truncate fails
		errText   string
		recovered bool
	}{
		{"rollback-ok", false, "charge not persisted, result withheld", false},
		{"rollback-failed", true, "charge outcome unknown until restart", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ff *storetest.FaultyFile
			h := harness.Start(t, harness.Config{StateDir: t.TempDir(),
				WrapWALFile: func(f store.File) store.File { ff = storetest.Wrap(f); return ff }})
			const eps = 0.5
			before := h.Budget(600)
			ff.Mu.Lock()
			ff.FailNextSync, ff.FailTruncate = true, tc.truncate
			ff.Mu.Unlock()
			job := h.SubmitWait("alice", harness.CountQuery(0, 2, eps))
			if job.State != "failed" || job.Result != nil || !strings.Contains(job.Error, tc.errText) {
				t.Fatalf("job = %+v, want failed, no result, error containing %q", job, tc.errText)
			}
			wantSpent := 0.0
			if tc.recovered {
				wantSpent = eps
			}
			if got := before - h.Budget(600); got != wantSpent {
				t.Errorf("before the crash the failed commit spent %v, want %v", got, wantSpent)
			}
			if next := h.SubmitWait("alice", harness.CountQuery(2, 4, eps)); next.State != "failed" {
				t.Fatalf("a commit after the failed fsync was accepted: %+v", next)
			}

			h.Crash()
			after, ok := h.Job(job.ID)
			if got := ok && after.State == "done" && after.Result != nil; got != tc.recovered {
				t.Errorf("after the crash the job recovered done with its result = %v, want %v (%+v)", got, tc.recovered, after)
			}
			if got := before - h.Budget(600); got != wantSpent {
				t.Errorf("after the crash the failed commit spent %v, want %v", got, wantSpent)
			}
		})
	}
}
