package store_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"privid/internal/store"
	"privid/internal/store/storetest"
)

// The faulty-File injector itself lives in storetest so the sim chaos
// layer can reuse it; these tests exercise it against the real WAL.

func chargeRec(cam string, s, e int64, eps float64) store.Record {
	return store.Record{Charge: &store.ChargeRecord{Camera: cam, Start: s, End: e, Eps: eps, Query: "q"}}
}

// TestCrashRecoveryMatrix is the satellite crash matrix: commit some
// charges, inject an I/O failure mid-commit, "crash" (abandon the WAL
// without Close), restart from the same directory (repairing if the
// tail is torn), and assert the charge-at-least-once invariant — the
// recovered remaining budget of every frame never *exceeds* what the
// pre-crash process acknowledged, i.e. recovered spent >= acked spent.
// Under group=false the fault hits one lone commit; under group=true it
// hits four concurrent commits, which the WAL may batch, and every one
// of them must fail.
func TestCrashRecoveryMatrix(t *testing.T) {
	const eps = 10.0
	cases := []struct {
		name  string
		fault func(*storetest.FaultyFile)
	}{
		{"write-fails-immediately", func(f *storetest.FaultyFile) { f.TearNextWrite(0) }},
		{"write-torn-midrecord", func(f *storetest.FaultyFile) {
			f.Mu.Lock()
			f.FailWriteAfter = 13
			f.FailTruncate = true
			f.Mu.Unlock()
		}},
		{"write-torn-rollback-ok", func(f *storetest.FaultyFile) { f.TearNextWrite(13) }},
		{"fsync-fails-bytes-durable", func(f *storetest.FaultyFile) {
			f.Mu.Lock()
			f.FailSync = true
			f.Mu.Unlock()
		}},
	}
	for _, group := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("group=%v/%s", group, tc.name), func(t *testing.T) {
				dir := t.TempDir()
				var ff *storetest.FaultyFile
				w, err := store.Open(dir, store.Options{
					WrapFile: func(f store.File) store.File {
						ff = storetest.Wrap(f)
						return ff
					},
				})
				if err != nil {
					t.Fatal(err)
				}

				// Acked spent: only charges whose Commit returned nil.
				acked := map[int64]float64{}
				commit := func(s, e int64, c float64) bool {
					if err := w.Commit(chargeRec("camA", s, e, c)); err != nil {
						return false
					}
					for fr := s; fr < e; fr++ {
						acked[fr] += c
					}
					return true
				}
				for i := int64(0); i < 5; i++ {
					if !commit(i*10, i*10+20, 0.5) {
						t.Fatal("healthy commit failed")
					}
				}
				tc.fault(ff)
				faulty := 1
				if group {
					faulty = 4
				}
				errs := make(chan error, faulty)
				var wg sync.WaitGroup
				for range faulty {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs <- w.Commit(chargeRec("camA", 0, 100, 1.0))
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err == nil {
						t.Fatal("faulty commit unexpectedly acked")
					}
				}

				// Crash: abandon w. Restart, repairing a torn tail if
				// the store refuses to open.
				w2, err := store.Open(dir, store.Options{})
				if err != nil {
					var ce *store.CorruptError
					if !errors.As(err, &ce) {
						t.Fatalf("reopen: %v", err)
					}
					if _, err := store.Repair(dir); err != nil {
						t.Fatalf("repair: %v", err)
					}
					if w2, err = store.Open(dir, store.Options{}); err != nil {
						t.Fatalf("reopen after repair: %v", err)
					}
				}
				defer w2.Close()
				st, err := store.ReadState(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				for fr := int64(0); fr < 120; fr++ {
					recovered := st.Spent("camA", fr)
					if recovered < acked[fr] {
						t.Fatalf("frame %d: recovered spent %v < acked %v — restart refilled budget (remaining %v > %v)",
							fr, recovered, acked[fr], eps-recovered, eps-acked[fr])
					}
				}
				// The store self-heals (rolled back) or poisoned
				// itself; either way the restarted store must accept
				// new commits.
				if err := w2.Commit(chargeRec("camA", 0, 1, 0.1)); err != nil {
					t.Fatalf("post-recovery commit: %v", err)
				}
			})
		}
	}
}

// TestFaultyCommitThenHealedCommit: after a rolled-back torn write the
// same WAL (no restart) must keep working, and the failed commit's
// bytes must not corrupt later records.
func TestFaultyCommitThenHealedCommit(t *testing.T) {
	dir := t.TempDir()
	var ff *storetest.FaultyFile
	w, err := store.Open(dir, store.Options{
		WrapFile: func(f store.File) store.File {
			ff = storetest.Wrap(f)
			return ff
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(chargeRec("camA", 0, 10, 0.5)); err != nil {
		t.Fatal(err)
	}
	ff.TearNextWrite(7) // torn write, rollback succeeds
	if err := w.Commit(chargeRec("camA", 0, 10, 1.0)); err == nil {
		t.Fatal("faulty commit acked")
	}
	ff.Heal()
	if err := w.Commit(chargeRec("camA", 0, 10, 0.25)); err != nil {
		t.Fatalf("healed commit: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.ReadState(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Spent("camA", 5); got != 0.75 {
		t.Errorf("spent = %v, want 0.75 (0.5 + 0.25, failed 1.0 rolled back)", got)
	}
}
