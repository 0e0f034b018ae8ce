package cache

// Tiered composes the RAM LRU (tier 1), the disk store (tier 2) and
// the singleflight that fronts them into the one handle the engine
// memoizes chunk results behind. Lookups try RAM first; a disk hit is
// promoted back into RAM so the working set migrates to the fast tier.
// Puts are write-through: the entry lands in both tiers, so it both
// serves hot repeats at RAM speed and survives a process restart.
//
// One store serves two kinds of entry: frozen tables (Do/Get/Put) and
// opaque byte payloads — encoded partial aggregate states — under
// their own counters (GetRaw/PutRaw). The engine tags keys by kind, so
// raw keys and table keys can never collide.

import (
	"sync/atomic"
	"time"

	"privid/internal/table"
)

// Tiered is a two-tier cache. Either tier may be nil, in which case it
// degenerates to the other tier alone (both nil stores nothing). It is
// safe for concurrent use. Tables it returns are frozen and shared;
// callers must not mutate them.
type Tiered struct {
	mem    *LRU
	disk   *Disk
	flight *Flight

	promotions atomic.Uint64
}

// NewTiered composes the two tiers.
func NewTiered(mem *LRU, disk *Disk) *Tiered {
	return &Tiered{mem: mem, disk: disk, flight: NewFlight()}
}

// Do returns the table stored under key, or on a miss obtains it from
// compute — which reports whether its result is clean — so that
// concurrent misses on one key cost one compute: the first becomes the
// leader, the rest wait up to maxWait (<= 0 waits forever) and share
// its frozen table by pointer (see Flight for the handoff and timeout
// rules). Only clean results are stored or shared: an unclean one —
// sandbox fallback rows, which depend on machine load, not on the
// chunk — would poison every later query over this chunk, so it goes
// to its own caller alone. The returned bool is compute's verdict
// (always true for a Hit or Shared outcome).
func (t *Tiered) Do(key string, maxWait time.Duration, compute func() (*table.Table, bool)) (*table.Table, bool, Outcome) {
	if tbl, ok := t.Get(key); ok {
		return tbl, true, Hit
	}
	return t.flight.Do(key, maxWait, func() (*table.Table, bool) {
		// Re-check under flight leadership: a clean result published
		// between this caller's miss and its turn to lead is stored by
		// now (leaders store before dissolving the flight) and must not
		// be recomputed. peek, not Get — the miss was already counted,
		// and this internal re-check must not distort the
		// analyst-visible hit rate, recency or promotions.
		if tbl, ok := t.peek(key); ok {
			return tbl, true
		}
		tbl, clean := compute()
		if clean {
			t.Put(key, tbl) // freezes tbl
		}
		return tbl, clean
	})
}

// FlightStats returns a snapshot of the singleflight counters behind
// Do.
func (t *Tiered) FlightStats() FlightStats { return t.flight.Stats() }

// Get tries RAM, then disk. Disk hits are promoted into RAM.
func (t *Tiered) Get(key string) (*table.Table, bool) {
	if t.mem != nil {
		if tbl, ok := t.mem.Get(key); ok {
			return tbl, true
		}
	}
	if t.disk == nil {
		return nil, false
	}
	tbl, ok := t.disk.Get(key)
	if !ok {
		return nil, false
	}
	if t.mem != nil {
		// Internal promote path: the entry migrates to the fast tier
		// without inflating the RAM tier's Puts counter, so operators
		// can tell real write-through traffic from promotions.
		t.mem.store(key, tbl, nil, false)
		t.promotions.Add(1)
	}
	return tbl, true
}

// peek checks RAM then disk without counting hits or misses and
// without promoting a disk hit.
func (t *Tiered) peek(key string) (*table.Table, bool) {
	if t.mem != nil {
		if tbl, ok := t.mem.peek(key); ok {
			return tbl, true
		}
	}
	if t.disk == nil {
		return nil, false
	}
	return t.disk.peek(key)
}

// GetRaw tries RAM, then disk, for a raw partial-state payload. Disk
// hits are promoted into RAM like table entries. The returned slice is
// shared; callers must not mutate it.
func (t *Tiered) GetRaw(key string) ([]byte, bool) {
	if t.mem != nil {
		if raw, ok := t.mem.GetRaw(key); ok {
			return raw, true
		}
	}
	if t.disk == nil {
		return nil, false
	}
	raw, ok := t.disk.GetRaw(key)
	if !ok {
		return nil, false
	}
	if t.mem != nil {
		t.mem.store(key, nil, raw, false)
		t.promotions.Add(1)
	}
	return raw, true
}

// PutRaw stores a raw partial-state payload in both tiers. The caller
// must not mutate raw afterwards.
func (t *Tiered) PutRaw(key string, raw []byte) {
	if t.mem != nil {
		t.mem.PutRaw(key, raw)
	}
	if t.disk != nil {
		t.disk.PutRaw(key, raw)
	}
}

// Put stores the (frozen) table in both tiers.
func (t *Tiered) Put(key string, tbl *table.Table) {
	tbl.Freeze()
	if t.mem != nil {
		t.mem.Put(key, tbl)
	}
	if t.disk != nil {
		t.disk.Put(key, tbl)
	}
}

// Close releases the disk tier (syncs and unmaps; a RAM-only cache has
// nothing to release). The cache must not be used after Close.
func (t *Tiered) Close() error {
	if t.disk != nil {
		return t.disk.Close()
	}
	return nil
}

// Stats merges both tiers: RAM counters in the classic fields, disk
// counters in the Disk* fields. Hits/Misses reflect the composite view
// (a Get served by either tier is one hit; a miss in both is one
// miss), which keeps HitRate meaningful for the whole cache. Puts
// counts write-through stores only; disk→RAM promotions appear solely
// in Promotions (the RAM tier's internal promote path skips its Puts
// counter).
func (t *Tiered) Stats() Stats {
	var s Stats
	if t.mem != nil {
		s = t.mem.Stats()
	}
	if t.disk != nil {
		ds := t.disk.Stats()
		s.DiskHits = ds.DiskHits
		s.DiskMisses = ds.DiskMisses
		s.DiskPuts = ds.DiskPuts
		s.DiskEvictions = ds.DiskEvictions
		s.DiskBytes = ds.DiskBytes
		s.DiskMaxBytes = ds.DiskMaxBytes
		s.DiskSegments = ds.DiskSegments
		s.DiskStateHits = ds.DiskStateHits
		s.DiskStateMisses = ds.DiskStateMisses
		s.DiskStatePuts = ds.DiskStatePuts
		s.Promotions = t.promotions.Load()
		if t.mem == nil {
			s.Hits, s.Misses = ds.DiskHits, ds.DiskMisses
			s.Puts = ds.DiskPuts
			s.Entries = ds.Entries
			s.StateHits, s.StateMisses = ds.DiskStateHits, ds.DiskStateMisses
			s.StatePuts = ds.DiskStatePuts
		} else {
			// RAM misses that the disk tier absorbed are composite hits.
			s.Hits += ds.DiskHits
			s.Misses -= min64(s.Misses, ds.DiskHits)
			s.StateHits += ds.DiskStateHits
			s.StateMisses -= min64(s.StateMisses, ds.DiskStateHits)
		}
	}
	return s
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
