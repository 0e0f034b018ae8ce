package cache

import (
	"maps"
	"slices"
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
	tbl, ok := tieredGet(t, key, true)
	return tbl, ok
}

// GetState looks one state up as a batch of one (GetStates), reading a
// disk hit RAM does not keep into *dst when dst is not nil: the
// byte-keyed state lookup the tests read entries back with.
func (t *Tiered) GetState(key []byte, dst *[]byte) ([]byte, bool) {
	b := StateBatch{Keys: [][]byte{key}}
	if dst != nil {
		b.Bufs = [][]byte{*dst}
	}
	t.GetStates(&b)
	if dst != nil {
		*dst = b.Bufs[0]
	}
	return b.Out[0], b.Hit[0]
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
		c.put("k", tbl(1, 2), false)
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
				if _, ok := tieredGet(c, "k", false); ok {
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
			c.put("k", published, false)
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

// fullRAM returns a RAM-only tier whose RAM is full of resident 8-byte
// states of other keys, none of them read, and whose decline history is
// built, and n consecutive keys alternating between states (even) and
// tables (odd) that it does not hold. The first decline evicts nothing:
// the history's bytes, two slots per resident entry, count against the
// bound, and the next stored put makes room for them.
func fullRAM(t *testing.T, resident, n int) (*Tiered, *LRU, [][]byte) {
	mem := New(int64(resident) * (entryOverhead + 49 + 8))
	for i := 0; mem.Stats().Evictions == 0; i++ {
		mem.PutRaw(string(engineKey('R', i)), make([]byte, 8))
	}
	c := NewTiered(mem, nil)
	before := mem.Stats()
	c.PutState(engineKey('X', 0), make([]byte, 8))
	if st := mem.Stats(); st.Declined != 1 || st.Evictions != before.Evictions || len(mem.history) != 2*resident ||
		st.Bytes != before.Bytes+int64(16*resident) {
		t.Fatalf("first decline: %+v with a %d-slot history, before %+v; want a %d-slot history's bytes and no eviction",
			st, len(mem.history), before, 2*resident)
	}
	return c, mem, consecutiveKeys(n)
}

// consecutiveKeys returns n engine keys alternating between states
// (even) and tables (odd).
func consecutiveKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = engineKey("ST"[i%2], i)
	}
	return keys
}

// putAll write-throughs every key once, the way the engine does: a
// state by PutState, a table by a Do that misses and computes. It
// returns how many Do calls computed.
func putAll(c *Tiered, keys [][]byte) (computed int) {
	for i, k := range keys {
		if i%2 == 0 {
			c.PutState(k, statePayload(i))
			continue
		}
		c.Do(k, 0, func() (*table.Table, bool) { computed++; return tbl(float64(i)), true })
	}
	return computed
}

// readAll looks every key of keys up once and checks it hits.
func readAll(t *testing.T, c *Tiered, keys [][]byte) {
	t.Helper()
	for i, k := range keys {
		if i%2 == 0 {
			if got, ok := c.GetState(k, nil); !ok || !slices.Equal(got, statePayload(i)) {
				t.Fatalf("GetState(%d) = %v, %v", i, got, ok)
			}
		} else if got, _, outcome := c.Do(k, 0, mustNotCompute(t)); outcome != Hit || got.At(0, 0).Num() != float64(i) {
			t.Fatalf("Do(%d) = %v, %v; want a hit", i, got, outcome)
		}
	}
}

// A key cycle longer than a full RAM tier's entry count is declined on
// every put: nothing is stored, nothing is evicted, and RAM keeps its
// entries and bytes.
func TestTieredDeclinesWriteCycleLargerThanRAM(t *testing.T) {
	c, mem, keys := fullRAM(t, 16, 24)
	resident := slices.Sorted(maps.Keys(mem.items))
	before := mem.Stats()
	for pass := 0; pass < 3; pass++ {
		if computed := putAll(c, keys); computed != len(keys)/2 {
			t.Fatalf("pass %d computed %d tables, want every one of %d", pass, computed, len(keys)/2)
		}
	}
	st := mem.Stats()
	if st.Puts != before.Puts || st.StatePuts != before.StatePuts || st.Evictions != before.Evictions ||
		st.Bytes != before.Bytes || st.Declined-before.Declined != 3*24 {
		t.Fatalf("stats = %+v, before %+v; want 72 declined puts, none stored and nothing evicted", st, before)
	}
	if got := slices.Sorted(maps.Keys(mem.items)); !slices.Equal(got, resident) {
		t.Fatal("a declined cycle changed RAM's entries")
	}
}

// Keys put again within the horizon are stored on their second put,
// evicting the oldest entries, and then hit. Four consecutive keys
// make five declines, fewer than a history bucket holds, so none can
// be forgotten however they hash.
func TestTieredStoresPutsRepeatedWithinHorizon(t *testing.T) {
	c, mem, keys := fullRAM(t, 16, 4)
	before := mem.Stats()
	putAll(c, keys)
	if st := mem.Stats(); st.Declined-before.Declined != 4 || st.Puts+st.StatePuts != before.StatePuts {
		t.Fatalf("first put: %+v, want 4 declined and only the filling puts stored", st)
	}
	putAll(c, keys)
	if st := mem.Stats(); st.Declined-before.Declined != 4 || st.Puts != 2 || st.StatePuts != before.StatePuts+2 ||
		st.Evictions <= before.Evictions || st.Bytes > st.MaxBytes {
		t.Fatalf("second put: %+v, want each key stored, evicting down to the bound", st)
	}
	readAll(t, c, keys)
}

// Over ordinary keys the history keeps nearly every decline within the
// horizon: 192 consecutive keys, each put again 192 rulings after its
// decline (the tier then holds about 230 entries, its horizon), are
// stored on that second put at least 95% of the time. A decline is
// forgotten only when more than eight declines within the horizon
// share its bucket: over 60 processes, each with a hash seed of its
// own, this loses 17 keys of 11,520.
func TestTieredAdmitsRepeatedPutsAtHorizon(t *testing.T) {
	c, mem, keys := fullRAM(t, 256, 192)
	before := mem.Stats()
	putAll(c, keys)
	if st := mem.Stats(); st.Declined-before.Declined != 192 {
		t.Fatalf("first pass: %+v, want every put declined", st)
	}
	putAll(c, keys)
	st := mem.Stats()
	stored := int(st.Puts + st.StatePuts - before.Puts - before.StatePuts)
	if stored < 192*95/100 || st.Entries <= 192 {
		t.Fatalf("second pass stored %d of 192 keys with %d entries resident; want at least 95%% and a horizon above 192",
			stored, st.Entries)
	}
}

// A put that only RAM would keep replaces an entry that was read and
// has since aged to the tail, as LRU would: a window that moves on
// executes each new chunk once. Once the tail is an entry nobody read
// (the new window, until it is read), the next new keys are declined.
func TestTieredSolePutReplacesReadEntry(t *testing.T) {
	mem := New(16 * (entryOverhead + 49 + 8))
	c := NewTiered(mem, nil)
	old := make([][]byte, 16)
	for i := range old {
		old[i] = engineKey('O', i)
		c.PutState(old[i], statePayload(i))
	}
	for _, k := range old {
		if _, ok := c.GetState(k, nil); !ok {
			t.Fatal("the tier lost an entry before it was full")
		}
	}
	keys := consecutiveKeys(32)
	putAll(c, keys[:16])
	if st := mem.Stats(); st.Declined != 0 || st.Evictions != 16 || st.Entries != 16 {
		t.Fatalf("after the new window: %+v, want all 16 stored over the 16 read entries", st)
	}
	putAll(c, keys[16:])
	if st := mem.Stats(); st.Declined != 16 || st.Evictions != 16 {
		t.Fatalf("after a third window: %+v, want its 16 puts declined over the unread second", st)
	}
	readAll(t, c, keys[:16])
}
