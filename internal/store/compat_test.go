package store_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"privid/internal/store"
)

// TestTwoCommitWALReplays: a state dir written when a query took two
// commits — charges and audit entry first, the terminal job record with
// its span tree after — and holding a snapshot plus a WAL tail still
// opens. It replays to the spent segments, audit entries and jobs
// recorded beside it, the jobs without the "trace" key decoding now
// ignores, and compacts and reopens to the same.
func TestTwoCommitWALReplays(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "twocommit")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte(`"trace":`)) {
			t.Fatalf("%s holds no traced job record", e.Name())
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(src + ".expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Spent map[string][]store.Segment `json:"spent"`
		Audit []store.AuditRecord        `json:"audit"`
		Jobs  []map[string]any           `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &want); err != nil || len(want.Jobs) == 0 {
		t.Fatalf("expected state: %d jobs, %v", len(want.Jobs), err)
	}
	same := func(what string, got, want any) {
		t.Helper()
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s:\n got %s\nwant %s", what, g, w)
		}
	}
	check := func(stage string) {
		t.Helper()
		st, err := store.ReadState(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		spent := map[string][]store.Segment{}
		for _, cam := range st.Cameras() {
			spent[cam] = st.SpentSegments(cam)
		}
		same(stage+": spent", spent, want.Spent)
		same(stage+": audit", st.Audit(), want.Audit)
		// As decoded maps: the recorded jobs are key-sorted.
		var jobs []map[string]any
		b, _ := json.Marshal(st.Jobs())
		_ = json.Unmarshal(b, &jobs)
		same(stage+": jobs", jobs, want.Jobs)
	}
	check("replay")
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // compacts the legacy records
		t.Fatal(err)
	}
	check("after compaction")
}
