package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func charge(cam string, s, e int64, eps float64) Record {
	return Record{Charge: &ChargeRecord{Camera: cam, Start: s, End: e, Eps: eps, Query: "q"}}
}

func TestCommitRecoverClose(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(charge("camA", 0, 100, 0.5), charge("camA", 50, 150, 0.25)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(Record{Audit: &AuditRecord{At: time.Now(), Cameras: []string{"camA"}, Releases: 2, EpsilonSpent: 0.75}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(Record{Job: &JobRecord{ID: "q-000001", Analyst: "alice", State: "done"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := ReadState(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Spent("camA", 75); got != 0.75 {
		t.Errorf("spent at 75 = %v, want 0.75", got)
	}
	if got := st.Spent("camA", 10); got != 0.5 {
		t.Errorf("spent at 10 = %v, want 0.5", got)
	}
	if got := st.Spent("camA", 149); got != 0.25 {
		t.Errorf("spent at 149 = %v, want 0.25", got)
	}
	if got := st.Spent("camA", 150); got != 0 {
		t.Errorf("spent at 150 = %v, want 0", got)
	}
	if len(st.Audit()) != 1 || st.Audit()[0].Releases != 2 {
		t.Errorf("audit = %+v", st.Audit())
	}
	if jobs := st.Jobs(); len(jobs) != 1 || jobs[0].ID != "q-000001" {
		t.Errorf("jobs = %+v", jobs)
	}
}

// TestReplayWithoutClose simulates a crash: the WAL is abandoned
// without Close (no final snapshot), so recovery must replay raw
// records.
func TestReplayWithoutClose(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Commit(charge("camA", int64(i*10), int64(i*10+20), 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close. The data is already fsynced per commit.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.SpentSegments("camA"); len(got) == 0 {
		t.Fatal("no segments recovered")
	}
	st, _ := ReadState(dir, 0)
	// Frames 10..89 are covered by two overlapping charges.
	if got := st.Spent("camA", 15); got != 0.2 {
		t.Errorf("spent at 15 = %v, want 0.2", got)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Commit(charge("camA", 0, 1000, 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	info := w.Info()
	if info.Snapshots == 0 {
		t.Fatal("no automatic snapshots taken")
	}
	if info.Gen == 0 {
		t.Fatal("generation never advanced")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Exactly one live generation file remains.
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(matches) != 1 {
		t.Fatalf("stale generations left: %v", matches)
	}
	st, err := ReadState(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Spent("camA", 500)
	want := 0.0
	for i := 0; i < 100; i++ {
		want += 0.01
	}
	if got != want {
		t.Errorf("compacted spent = %v, want %v (exact)", got, want)
	}
}

func TestTornTailRefusesThenRepairs(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Commit(charge("camA", 0, 100, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-write: append a torn record (frame header promising
	// more bytes than exist) directly to the file.
	path := filepath.Join(dir, walName(0))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0xAB, 0xCD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("open on torn WAL: got %v, want CorruptError", err)
	}
	if ce.Path != path {
		t.Errorf("corrupt path = %q, want %q", ce.Path, path)
	}

	dropped, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 6 {
		t.Errorf("dropped %d bytes, want 6", dropped)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	defer w2.Close()
	st, _ := ReadState(dir, 0)
	if got, want := st.Spent("camA", 50), 0.5; got != want {
		t.Errorf("spent after repair = %v, want %v", got, want)
	}
	// Repair on a clean log is a no-op.
	if dropped, err := Repair(dir); err != nil || dropped != 0 {
		t.Errorf("repair on clean log: dropped=%d err=%v", dropped, err)
	}
}

func TestCorruptedRecordDetected(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(charge("camA", 0, 100, 0.1)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Close snapshots and rolls the generation; corrupt the *snapshot*
	// path instead: flip a byte inside the new generation after one
	// more commit without Close.
	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(charge("camA", 0, 100, 0.1)); err != nil {
		t.Fatal(err)
	}
	gen := w.Info().Gen
	path := filepath.Join(dir, walName(gen))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open accepted a corrupted record")
	}
	if _, err := Repair(dir); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	w2.Close()
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cam := fmt.Sprintf("cam%02d", g)
			for i := 0; i < per; i++ {
				errs <- w.Commit(charge(cam, int64(i), int64(i+10), 0.01))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ReadState(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Cameras()); got != goroutines {
		t.Fatalf("%d cameras recovered, want %d", got, goroutines)
	}
	if st.Spent("cam00", 5) == 0 {
		t.Error("cam00 lost its charges")
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(charge("camA", 0, 1, 0.1)); !errors.Is(err, ErrClosed) {
		t.Errorf("commit after close: %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestEmptyCommitIsNoop(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionBounds: job and audit retention is bounded so snapshots
// stay O(retention); spent budget is never dropped.
func TestRetentionBounds(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{MaxJobs: 5, MaxAudit: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Commit(
			charge("camA", int64(i), int64(i+1), 0.1),
			Record{Audit: &AuditRecord{Releases: i}},
			Record{Job: &JobRecord{ID: fmt.Sprintf("q-%06d", i), State: "done"}},
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ReadState(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := st.Jobs(); len(jobs) != 5 || jobs[4].ID != "q-000019" {
		t.Errorf("jobs = %d (last %s), want 5 ending at q-000019", len(jobs), jobs[len(jobs)-1].ID)
	}
	if audit := st.Audit(); len(audit) > 10000 {
		t.Errorf("audit unbounded: %d", len(audit))
	}
	// Every charge survives regardless of retention bounds.
	for i := int64(0); i < 20; i++ {
		if st.Spent("camA", i) != 0.1 {
			t.Fatalf("charge at %d dropped", i)
		}
	}
	// The live WAL applied its own bound too.
	w2, err := Open(dir, Options{MaxJobs: 5, MaxAudit: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := len(w2.Jobs()); got != 5 {
		t.Errorf("recovered jobs = %d, want 5", got)
	}
	if got := len(w2.AuditEntries()); got != 7 {
		t.Errorf("recovered audit = %d, want 7", got)
	}
}
