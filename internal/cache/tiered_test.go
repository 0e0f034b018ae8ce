package cache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/table"
)

// Tiered.Do is the engine's only way to a chunk table: lookup,
// singleflight, the leader's re-check and publish-only-clean-results
// live behind it. These tests pin each rule at the cache, for every
// tier combination the engine can assemble. Run under -race.

// eachTiering runs fn against RAM-only, disk-only and two-tier caches.
func eachTiering(t *testing.T, fn func(t *testing.T, c *Tiered)) {
	for _, tc := range []struct {
		name      string
		mem, disk bool
	}{{"ram", true, false}, {"disk", false, true}, {"ram+disk", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			var mem *LRU
			if tc.mem {
				mem = New(1 << 20)
			}
			var disk *Disk
			if tc.disk {
				var err error
				if disk, err = OpenDisk(t.TempDir(), 1<<20); err != nil {
					t.Fatal(err)
				}
			}
			c := NewTiered(mem, disk)
			defer c.Close()
			fn(t, c)
		})
	}
}

// get tries RAM, then disk, for a table, promoting a disk hit: the
// string-keyed table lookup the tests read entries back with.
func (t *Tiered) get(key string) (*table.Table, bool) {
	tbl, _, ok := tieredGet(t, key, false, true)
	return tbl, ok
}

// mustNotCompute is a compute that fails the test when called.
func mustNotCompute(t *testing.T) func() (*table.Table, bool) {
	return func() (*table.Table, bool) {
		t.Error("compute called")
		return tbl(), true
	}
}

// waitFollowers blocks until n callers are waiting on a leader.
func waitFollowers(t *testing.T, c *Tiered, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.FlightStats().Waiting != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d followers waiting, want %d", c.FlightStats().Waiting, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestTieredDoHitSkipsCompute(t *testing.T) {
	eachTiering(t, func(t *testing.T, c *Tiered) {
		c.put("k", tbl(1, 2))
		got, clean, outcome := c.Do([]byte("k"), 0, mustNotCompute(t))
		if outcome != Hit || !clean || got.Len() != 2 {
			t.Fatalf("Do on a stored key = (%d rows, clean=%v, %v), want a clean 2-row Hit", got.Len(), clean, outcome)
		}
		if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
			t.Fatalf("stats after one hit = %+v", st)
		}
		if fs := c.FlightStats(); fs != (FlightStats{}) {
			t.Fatalf("a hit joined a flight: %+v", fs)
		}
	})
}

func TestTieredDoCoalescesConcurrentMisses(t *testing.T) {
	eachTiering(t, func(t *testing.T, c *Tiered) {
		const callers = 8
		var computes atomic.Int32
		release := make(chan struct{})
		var wg sync.WaitGroup
		outcomes := make([]Outcome, callers)
		tables := make([]*table.Table, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tables[i], _, outcomes[i] = c.Do([]byte("k"), 0, func() (*table.Table, bool) {
					computes.Add(1)
					<-release
					return tbl(7), true
				})
			}()
		}
		waitFollowers(t, c, callers-1)
		close(release)
		wg.Wait()
		if got := computes.Load(); got != 1 {
			t.Fatalf("%d concurrent misses ran compute %d times, want 1", callers, got)
		}
		led, shared := 0, 0
		for i, o := range outcomes {
			switch o {
			case Led:
				led++
			case Shared:
				shared++
			}
			if tables[i].Len() != 1 || !tables[i].Frozen() {
				t.Fatalf("caller %d got %v (frozen=%v)", i, tables[i], tables[i].Frozen())
			}
		}
		if led != 1 || shared != callers-1 {
			t.Fatalf("outcomes %v: want 1 led, %d shared", outcomes, callers-1)
		}
		// The clean result was stored: the next caller hits.
		if _, _, outcome := c.Do([]byte("k"), 0, mustNotCompute(t)); outcome != Hit {
			t.Fatalf("after a clean publish Do = %v, want Hit", outcome)
		}
		if st := c.Stats(); st.Misses != callers || st.Hits != 1 {
			t.Fatalf("stats = %+v, want %d misses (one per cold caller) and 1 hit", st, callers)
		}
	})
}

// An unclean result goes to the caller that computed it and to nobody
// else: a waiting follower is handed the lead and computes afresh, and
// nothing is stored until a compute comes back clean.
func TestTieredDoUncleanNeitherStoredNorShared(t *testing.T) {
	eachTiering(t, func(t *testing.T, c *Tiered) {
		fallback, fresh := tbl(0), tbl(42)
		leaderIn := make(chan struct{})
		var followerTbl *table.Table
		var followerClean bool
		var followerOutcome Outcome
		done := make(chan struct{})
		go func() {
			defer close(done)
			<-leaderIn
			followerTbl, followerClean, followerOutcome = c.Do([]byte("k"), 0, func() (*table.Table, bool) {
				// Running at all proves the leader's rows were not
				// shared; nothing may have been stored either.
				if _, _, ok := tieredGet(c, "k", false, false); ok {
					t.Error("unclean result was stored")
				}
				return fresh, true
			})
		}()
		got, clean, outcome := c.Do([]byte("k"), 0, func() (*table.Table, bool) {
			close(leaderIn)
			waitFollowers(t, c, 1)
			return fallback, false
		})
		if got != fallback || clean || outcome != Led {
			t.Fatalf("leader got (%v, clean=%v, %v), want its own unclean rows", got, clean, outcome)
		}
		<-done
		if followerTbl != fresh || !followerClean || followerOutcome != Handoff {
			t.Fatalf("follower got (%v, clean=%v, %v), want a fresh clean Handoff", followerTbl, followerClean, followerOutcome)
		}
		if st := c.Stats(); st.Puts != 1 {
			t.Fatalf("puts = %d, want only the follower's clean result", st.Puts)
		}
	})
}

// The leader's re-check finds a result published after its own miss and
// returns it without computing — and without moving the hit/miss
// counters, recency or promotions the analyst-visible stats are built
// from. Staged through the handoff path: the failing leader's compute
// stores a result behind the flight's back (standing in for a publish
// that raced the follower's miss), so the promoted follower's re-check
// is what finds it.
func TestTieredDoRecheckIsInvisible(t *testing.T) {
	eachTiering(t, func(t *testing.T, c *Tiered) {
		published := tbl(9)
		leaderIn := make(chan struct{})
		done := make(chan struct{})
		var got *table.Table
		var outcome Outcome
		go func() {
			defer close(done)
			<-leaderIn
			got, _, outcome = c.Do([]byte("k"), 0, mustNotCompute(t))
		}()
		c.Do([]byte("k"), 0, func() (*table.Table, bool) {
			close(leaderIn)
			waitFollowers(t, c, 1)
			c.put("k", published)
			return tbl(0), false
		})
		<-done
		if outcome != Handoff || got.Len() != 1 || got.At(0, 0).Num() != 9 {
			t.Fatalf("promoted follower got (%v, %v), want the published table via Handoff", got, outcome)
		}
		st := c.Stats()
		if st.Hits != 0 || st.Misses != 2 || st.Promotions != 0 {
			t.Fatalf("stats = %+v, want the two callers' own misses and nothing from the re-check", st)
		}
	})
}
