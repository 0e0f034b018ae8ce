package cache

import (
	"fmt"
	"sync"
	"testing"

	"privid/internal/table"
)

func numSchema() table.Schema {
	return table.MustSchema(table.Column{Name: "v", Type: table.DNumber, Default: table.N(0)})
}

func tbl(vals ...float64) *table.Table {
	t := table.New(numSchema())
	for _, v := range vals {
		t.Append(table.Row{table.N(v)})
	}
	return t
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", tbl(1, 2, 3))
	got, ok := c.Get("a")
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Len() != 3 || got.At(1, 0).Num() != 2 {
		t.Fatalf("wrong table back: %v", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if rate := float64(st.Hits) / float64(st.Hits+st.Misses); rate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", rate)
	}
}

// Cached tables are immutable and shared: Get must return the same
// frozen table (no deep copy), and any attempt to mutate it must panic
// rather than corrupt other readers.
func TestGetSharesFrozenTable(t *testing.T) {
	c := New(1 << 20)
	in := tbl(7)
	c.Put("k", in)
	if !in.Frozen() {
		t.Fatal("Put must freeze the stored table")
	}
	got, _ := c.Get("k")
	if got != in {
		t.Fatal("Get must share the stored table, not copy it")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a cached table must panic")
		}
	}()
	got.Append(table.Row{table.N(99)})
}

// TestConcurrentSharedReaders drives concurrent Gets and reads of the
// same cached table (run with -race): sharing frozen tables must not
// introduce data races.
func TestConcurrentSharedReaders(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", tbl(1, 2, 3, 4, 5))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, ok := c.Get("k")
				if !ok {
					t.Error("miss on cached key")
					return
				}
				var s float64
				for _, v := range got.Nums(0) {
					s += v
				}
				if s != 15 {
					t.Errorf("sum = %v, want 15", s)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestLRUEviction(t *testing.T) {
	one := tableCost("k00", tbl(1))
	c := New(3 * one) // room for exactly three entries
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%02d", i), tbl(float64(i)))
	}
	// Touch k00 so k01 becomes the eviction victim.
	if _, ok := c.Get("k00"); !ok {
		t.Fatal("k00 missing")
	}
	c.Put("k03", tbl(3))
	if _, ok := c.Get("k01"); ok {
		t.Fatal("k01 should have been evicted (least recently used)")
	}
	for _, k := range []string{"k00", "k02", "k03"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceeds bound %d", st.Bytes, st.MaxBytes)
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	c := New(64) // smaller than any realistic entry
	c.Put("big", tbl(1, 2, 3, 4, 5, 6, 7, 8))
	if _, ok := c.Get("big"); ok {
		t.Fatal("entry larger than the whole bound must not be stored")
	}
	if c.Stats().Entries != 0 {
		t.Fatalf("len = %d, want 0", c.Stats().Entries)
	}
}

func TestOverwriteUpdatesCost(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", tbl(1, 2, 3, 4, 5, 6, 7, 8))
	before := c.Stats().Bytes
	c.Put("k", tbl(1))
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if st.Bytes >= before {
		t.Fatalf("bytes %d not reduced from %d after shrinking overwrite", st.Bytes, before)
	}
	got, _ := c.Get("k")
	if got.Len() != 1 {
		t.Fatalf("overwrite not visible: %v", got)
	}
}

func TestZeroBoundStoresNothing(t *testing.T) {
	c := New(0)
	c.Put("k", tbl(1))
	if _, ok := c.Get("k"); ok {
		t.Fatal("zero-bound cache stored an entry")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16) // small enough to force constant eviction
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%40)
				if got, ok := c.Get(key); ok {
					if got.At(0, 0).Num() != float64((g*7+i)%40) {
						t.Errorf("key %s returned wrong table", key)
						return
					}
				} else {
					c.Put(key, tbl(float64((g*7+i)%40)))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceeds bound %d", st.Bytes, st.MaxBytes)
	}
}
