package store

import (
	"fmt"
	"testing"
)

// TestRetentionAcrossTrimBoundary pins what the amortised trim must not
// change: after every single commit — before, at and past the points
// where the backing log is cut back from 2×bound to bound — the live
// accessors, Info, a snapshot and both recovery paths (WAL replay,
// snapshot + replay) expose exactly the last MaxAudit/MaxJobs records,
// in commit order.
func TestRetentionAcrossTrimBoundary(t *testing.T) {
	const maxJobs, maxAudit = 3, 4
	opts := Options{MaxJobs: maxJobs, MaxAudit: maxAudit, SnapshotEvery: -1}
	dir := t.TempDir()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close() }()

	check := func(where string, n int, audit []AuditRecord, jobs []JobRecord) {
		t.Helper()
		wantA, wantJ := min(n, maxAudit), min(n, maxJobs)
		if len(audit) != wantA || len(jobs) != wantJ {
			t.Fatalf("%s after %d commits: %d audit / %d jobs, want %d / %d", where, n, len(audit), len(jobs), wantA, wantJ)
		}
		for k, a := range audit {
			if want := n - wantA + k; a.Releases != want {
				t.Fatalf("%s after %d commits: audit[%d] = %d, want %d", where, n, k, a.Releases, want)
			}
		}
		for k, j := range jobs {
			if want := fmt.Sprintf("q-%06d", n-wantJ+k); j.ID != want {
				t.Fatalf("%s after %d commits: jobs[%d] = %s, want %s", where, n, k, j.ID, want)
			}
		}
	}

	for i := 0; i < 5*maxAudit; i++ {
		if err := w.Commit(
			Record{Audit: &AuditRecord{Releases: i}},
			Record{Job: &JobRecord{ID: fmt.Sprintf("q-%06d", i), State: "done"}},
		); err != nil {
			t.Fatal(err)
		}
		n := i + 1
		check("live", n, w.AuditEntries(), w.Jobs())
		if info := w.Info(); info.AuditEntries != min(n, maxAudit) || info.Jobs != min(n, maxJobs) {
			t.Fatalf("Info after %d commits: %d audit / %d jobs", n, info.AuditEntries, info.Jobs)
		}
		st, err := ReadState(dir, maxJobs)
		if err != nil {
			t.Fatal(err)
		}
		// ReadState replays with the default audit bound, far above n.
		check("replayed", n, retained(st.Audit(), maxAudit), st.Jobs())
		if i%3 == 2 {
			// Snapshot + reopen: the snapshot file must hold the
			// retained records only, and recovery must resume from it.
			if err := w.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			check("recovered", n, w.AuditEntries(), w.Jobs())
			if got := len(w.state.audit); got != min(n, maxAudit) {
				t.Fatalf("snapshot after %d commits carried %d audit entries", n, got)
			}
		}
	}
}

// BenchmarkStateApply_AtCap measures one audit-record commit into a
// state already holding MaxAudit entries — the steady state of a
// server that has been up for a day. It was O(MaxAudit) per commit
// (the whole log re-sliced each time); amortised trimming makes it
// O(1).
func BenchmarkStateApply_AtCap(b *testing.B) {
	const maxAudit = 10000
	s := newState()
	s.maxAudit = maxAudit
	rec := Record{Audit: &AuditRecord{Cameras: []string{"cam"}, Releases: 1, EpsilonSpent: 0.001}}
	payload, err := appendRecord(nil, rec)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < maxAudit; i++ {
		s.apply(rec, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.apply(rec, payload)
	}
}
