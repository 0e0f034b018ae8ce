package server

import (
	"testing"
	"time"

	"privid/internal/core"
)

// BenchmarkScheduler_DurableCachedCount measures one job's serving-side
// cost with durability on: submit a COUNT whose chunks are all cached
// to a scheduler over a WAL-backed engine, and wait for it to finish.
// What remains per op is parse, scheduling, admission with its fsynced
// charge, the trace, and the terminal job record's encoding and commit —
// the durable_small service workload's per-op path without HTTP.
func BenchmarkScheduler_DurableCachedCount(b *testing.B) {
	// Parallelism is pinned so the per-shard worker allocations, and so
	// B/op, do not depend on the host's core count.
	engine := newTestEngineWith(b, core.Options{Seed: 1, StateDir: b.TempDir(), Parallelism: 2})
	defer engine.Close()
	sched := NewScheduler(engine, SchedulerOptions{Workers: 1})
	defer sched.Close()
	// A tiny ε per query keeps the camera's budget far from exhaustion
	// at any b.N.
	const query = `SPLIT campus BEGIN 3-15-2021/6:00am END 3-15-2021/6:05am
  BY TIME 30sec STRIDE 0sec INTO c;
PROCESS c USING headcount TIMEOUT 5sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING 0.00001;`
	run := func() {
		id, err := sched.Submit("alice", query)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if info, _ := sched.Job(id); info.Finished() {
				if info.State != JobDone {
					b.Fatalf("job %s: %s", id, info.Error)
				}
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	run() // fill the chunk cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
