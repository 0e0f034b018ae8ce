package store_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/dp"
	"privid/internal/store"
	"privid/internal/vtime"
)

// The LedgerCommit benchmarks measure the cost of durability on the
// admission hot path: 16 concurrent submitters (the scheduler's
// worker-pool scale), each owning one camera's ledger, admitting one
// charge per iteration as the engine does — Reserve, commit the charge
// to a shared store, Finalize.
//
//	Null — store.NullStore: the pre-durability in-memory cost.
//	WAL  — the WAL with real fsyncs: charges that arrive while one
//	       fsync is in flight share the next, so the sync is amortized
//	       across submitters.

const benchSubmitters = 16

func benchLedgerCommit(b *testing.B, mk func(b *testing.B) store.Store) {
	st := mk(b)
	defer st.Close()
	var iter int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for s := 0; s < benchSubmitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			led := dp.NewLedger("cam", 1e18) // never exhausts
			charges := []dp.Charge{{Interval: vtime.NewInterval(0, 100), Eps: 1e-9}}
			for atomic.AddInt64(&iter, 1) <= int64(b.N) {
				id, err := led.Reserve(charges, 0)
				if err == nil {
					recs := make([]store.Record, len(charges))
					for i, c := range charges {
						recs[i] = store.Record{Charge: &store.ChargeRecord{
							Camera: "cam",
							Start:  c.Interval.Start,
							End:    c.Interval.End,
							Eps:    c.Eps,
							Query:  "bench",
						}}
					}
					err = st.Commit(recs...)
				}
				if err != nil {
					b.Error(err)
					return
				}
				led.Finalize(id)
			}
		}(s)
	}
	wg.Wait()
}

func BenchmarkLedgerCommit_Null(b *testing.B) {
	benchLedgerCommit(b, func(b *testing.B) store.Store { return store.NullStore{} })
}

func BenchmarkLedgerCommit_WAL(b *testing.B) {
	benchLedgerCommit(b, func(b *testing.B) store.Store {
		w, err := store.Open(b.TempDir(), store.Options{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		return w
	})
}

// retentionJob is a terminal job record shaped like the durable_small
// service workload's: a three-statement query and a one-release result.
func retentionJob(i int) store.JobRecord {
	at := time.Date(2026, 10, 16, 6, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Millisecond)
	return store.JobRecord{
		ID: fmt.Sprintf("q-%06d", i), Analyst: "client-1", State: "done",
		Query: `SPLIT cam07 BEGIN 3-15-2021/9:40am END 3-15-2021/9:50am BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING simobj TIMEOUT 5sec PRODUCING 4 ROWS WITH SCHEMA (id:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.05;`,
		SubmittedAt: at, StartedAt: at, FinishedAt: at.Add(300 * time.Microsecond),
		Result: json.RawMessage(`{"Releases":[{"Columns":["COUNT(*)"],"Rows":[[{"Kind":1,"Num":41.83127614}]],"Epsilon":0.05,"Sensitivity":4,"NoiseScale":80}],` +
			`"EpsilonSpent":0.05,"Cameras":[{"Camera":"cam07","EpsilonSpent":0.05,"Remaining":999.45}]}`),
	}
}

// BenchmarkSnapshot_AtRetention measures one compaction of a WAL at its
// retention bounds — 10,000 audit entries and 1,000 durable_small-shaped
// job records — which a busy server pays every SnapshotEvery records,
// holding the WAL lock throughout.
func BenchmarkSnapshot_AtRetention(b *testing.B) {
	w, err := store.Open(b.TempDir(), store.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var recs []store.Record
	for i := 0; i < 10000; i++ {
		recs = append(recs,
			store.Record{Charge: &store.ChargeRecord{Camera: fmt.Sprintf("cam%02d", i%16), Start: int64(i%512) * 300, End: int64(i%512)*300 + 6000, Eps: 0.05, Query: "5d41402abc4b2a76"}},
			store.Record{Audit: &store.AuditRecord{At: time.Unix(1792130000, int64(i)), Cameras: []string{fmt.Sprintf("cam%02d", i%16)}, Releases: 1, EpsilonSpent: 0.05}})
		if i%10 == 0 {
			jr := retentionJob(i / 10)
			recs = append(recs, store.Record{Job: &jr})
		}
		if len(recs) >= 500 {
			if err := w.Commit(recs...); err != nil {
				b.Fatal(err)
			}
			recs = recs[:0]
		}
	}
	if err := w.Commit(recs...); err != nil {
		b.Fatal(err)
	}
	if info := w.Info(); info.AuditEntries != 10000 || info.Jobs != 1000 {
		b.Fatalf("state holds %d audit entries and %d jobs", info.AuditEntries, info.Jobs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
