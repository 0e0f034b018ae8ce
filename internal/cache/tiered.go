package cache

// Tiered composes the RAM LRU (tier 1), the disk store (tier 2) and
// the singleflight that fronts them into the one handle the engine
// memoizes chunk results behind. Lookups try RAM first. The engine's
// puts (Do's, DoCovered's and PutState's) land in one tier: on disk
// when there is one, so an entry survives a process restart; without
// one, in RAM. What RAM takes is ruled by LRU.admit alone, whether the
// candidate is a put (RAM-only) or a counted disk hit (a promotion):
// it is stored if RAM has room, or if the key recurs within RAM's
// horizon. So a hot set that fits migrates to the fast tier, while a
// scan larger than RAM, whose entries RAM would evict before any read,
// does not churn through it.
//
// One store serves two kinds of entry: frozen tables (Do) and opaque
// byte payloads — encoded partial aggregate states — under their own
// counters (GetStates/PutState, and the string-keyed GetRaw/PutRaw).
// The engine tags keys by kind, so raw keys and table keys can never
// collide.
//
// States are looked up in batches (GetStates; the engine runs a batch
// per plan of a region split, GetRaw a batch of one), and a batch takes
// each lock once rather than once per key: LRU.mu for every RAM lookup,
// Disk.mu to copy every disk hit into the caller's buffers, and LRU.mu
// again to rule on every promotion. Do's table lookup (tieredGet) runs
// the same lock-held bodies (lruGet, diskGet, store) for one key.

import (
	"slices"
	"sync/atomic"
	"time"

	"privid/internal/table"
)

// Tiered is a two-tier cache. Either tier may be nil, in which case it
// degenerates to the other tier alone (both nil stores nothing). It is
// safe for concurrent use. Tables it returns are frozen and shared;
// callers must not mutate them. An engine put is stored in one tier
// (see put), and a disk hit is promoted into RAM if LRU.admit admits
// it.
type Tiered struct {
	mem    *LRU
	disk   *Disk
	flight *flight

	promotions atomic.Uint64
}

// NewTiered composes the two tiers.
func NewTiered(mem *LRU, disk *Disk) *Tiered {
	return &Tiered{mem: mem, disk: disk, flight: newFlight()}
}

// Do returns the table stored under key, or on a miss obtains it from
// compute — which reports whether its result is clean — so that
// concurrent misses on one key cost one compute: the first becomes the
// leader, the rest wait up to maxWait (<= 0 waits forever) and share
// its frozen table by pointer (see flight for the handoff and timeout
// rules). Only clean results are stored or shared: an unclean one —
// sandbox fallback rows, which depend on machine load, not on the
// chunk — would poison every later query over this chunk, so it goes
// to its own caller alone. The returned bool is compute's verdict
// (always true for a Hit or Shared outcome). key is not retained: a
// hit makes no key string, and a leader makes the one its flight and
// stored entry share.
func (t *Tiered) Do(key []byte, maxWait time.Duration, compute func() (*table.Table, bool)) (*table.Table, bool, Outcome) {
	return t.do(key, maxWait, compute, false)
}

// DoCovered is Do for a table whose chunk's partial states the caller
// also stores (PutState), so that a rerun of its statement reads those
// and never this table: a full RAM tier without a disk tier keeps it
// only if it recurs (see LRU.admit).
func (t *Tiered) DoCovered(key []byte, maxWait time.Duration, compute func() (*table.Table, bool)) (*table.Table, bool, Outcome) {
	return t.do(key, maxWait, compute, true)
}

func (t *Tiered) do(key []byte, maxWait time.Duration, compute func() (*table.Table, bool), covered bool) (*table.Table, bool, Outcome) {
	if tbl, ok := tieredGet(t, key, true); ok {
		return tbl, true, Hit
	}
	return t.flight.do(key, maxWait, func(key string) (*table.Table, bool) {
		// Re-check under flight leadership: a clean result published
		// between this caller's miss and its turn to lead was offered
		// to the cache before that flight dissolved, and one the cache
		// kept must not be recomputed. One that RAM declined and no
		// disk holds is recomputed, as after an eviction. Uncounted —
		// the miss was already counted, and this internal re-check must
		// not distort the analyst-visible hit rate, recency or
		// promotions.
		if tbl, ok := tieredGet(t, key, false); ok {
			return tbl, true
		}
		tbl, clean := compute()
		if clean {
			t.put(key, tbl, covered) // freezes tbl
		}
		return tbl, clean
	})
}

// FlightStats returns a snapshot of the singleflight counters behind
// Do.
func (t *Tiered) FlightStats() FlightStats { return t.flight.stats() }

// tieredGet is the table lookup of one key: RAM, then disk. A counted
// disk hit is offered to RAM as a promotion, which LRU.admit rules on;
// an uncounted lookup (the leader's re-check) counts no hit or miss,
// touches no recency and offers nothing.
func tieredGet[K cacheKey](t *Tiered, key K, count bool) (*table.Table, bool) {
	if c := t.mem; c != nil {
		c.mu.Lock()
		tbl, _, ok := lruGet(c, key, false, count)
		c.mu.Unlock()
		if ok {
			return tbl, true
		}
	}
	if t.disk == nil {
		return nil, false
	}
	tbl, stored, ok := diskLookup(t.disk, key, count)
	if ok && count && t.mem != nil {
		if _, promoted := store(t.mem, stored, tbl, nil, promotion); promoted {
			t.promotions.Add(1)
		}
	}
	return tbl, ok
}

// GetRaw looks one raw partial-state payload up as a batch of one
// (GetStates), read into a fresh slice. The returned slice is shared
// with RAM or private; callers must not mutate it. It allocates its
// batch; a caller with many keys reuses one StateBatch instead.
func (t *Tiered) GetRaw(key string) ([]byte, bool) {
	b := StateBatch{Keys: [][]byte{[]byte(key)}}
	t.GetStates(&b)
	return b.Out[0], b.Hit[0]
}

// StateBatch is one batched lookup of raw partial states, for keys the
// caller holds as bytes (GetStates). The caller sets Keys and, to own
// its disk reads, Bufs; GetStates fills Out and Hit, index-aligned with
// Keys. A batch is meant to be reused: its slices keep their capacity,
// so a warm batch allocates nothing, and GetStates retains no key.
type StateBatch struct {
	Keys [][]byte
	// Bufs, if not nil, holds a buffer per key, the caller's: a disk
	// hit RAM does not keep is read into its key's buffer, grown as
	// needed, and Out aliases it. Without Bufs it is read into a fresh
	// slice.
	Bufs [][]byte
	// Out holds each hit's payload: RAM's shared copy, which must not
	// be mutated (a promotion copies the payload out of Bufs), or the
	// caller's buffer. Hit says which keys were found.
	Out [][]byte
	Hit []bool

	disk []diskHit // this lookup's disk hits, the promotion candidates
}

// diskHit is one key of a batch that the disk tier answered.
type diskHit struct {
	i   int    // its position in Keys
	key string // the disk index's key string, which a promotion stores under
	h   uint64 // keyHash(key), for admit
}

// GetStates looks up every key of b, counted, in three lock holds: RAM
// for every key, then disk for every key RAM missed, then RAM again for
// every disk hit, offered as a promotion that LRU.admit rules on. For
// distinct keys, counters, recency, rulings and payloads come out
// exactly as from a batch of one per key in this order: the keys RAM
// holds, then the others, each in batch order. Only
// RAM's hits move, ahead of the promotions: a RAM miss changes nothing
// but a counter, and a disk lookup changes nothing RAM holds. A key
// repeated after its promotion is a second disk hit, not a RAM hit.
func (t *Tiered) GetStates(b *StateBatch) {
	n := len(b.Keys)
	clear(b.Out[:cap(b.Out)]) // a longer batch's payloads too: none is kept past the length
	b.Out, b.Hit = slices.Grow(b.Out[:0], n)[:n], slices.Grow(b.Hit[:0], n)[:n]
	clear(b.Hit)
	missed := n
	if c := t.mem; c != nil {
		c.mu.Lock()
		for i, k := range b.Keys {
			if _, b.Out[i], b.Hit[i] = lruGet(c, k, true, true); b.Hit[i] {
				missed--
			}
		}
		c.mu.Unlock()
	}
	if t.disk == nil || missed == 0 {
		return
	}
	d := t.disk
	d.mu.Lock()
	for i, k := range b.Keys {
		if b.Hit[i] {
			continue
		}
		var dst *[]byte
		if b.Bufs != nil {
			dst = &b.Bufs[i]
		}
		if e, payload, ok := diskGet(d, k, true, true, dst); ok {
			b.Out[i], b.Hit[i] = payload, true
			b.disk = append(b.disk, diskHit{i: i, key: e.key})
		}
	}
	d.mu.Unlock()
	if c := t.mem; c != nil && len(b.disk) > 0 {
		for j := range b.disk {
			b.disk[j].h = keyHash(b.disk[j].key)
		}
		promoted := 0
		c.mu.Lock()
		for _, hit := range b.disk {
			raw := b.Out[hit.i]
			if kept, ok := storeLocked(c, hit.key, nil, raw, promotion, int64(entryOverhead+len(hit.key)+len(raw)), hit.h); ok {
				b.Out[hit.i] = kept
				promoted++
			}
		}
		c.mu.Unlock()
		t.promotions.Add(uint64(promoted))
	}
	clear(b.disk) // a pooled batch must not pin an evicted entry's key
	b.disk = b.disk[:0]
}

// PutRaw stores a raw partial-state payload in both tiers, RAM
// included whether or not it would keep it. The caller must not mutate
// raw afterwards.
func (t *Tiered) PutRaw(key string, raw []byte) {
	if t.mem != nil {
		t.mem.PutRaw(key, raw)
	}
	if t.disk != nil {
		t.disk.PutRaw(key, raw)
	}
}

// PutState is the engine's state put, for a key the caller holds as
// bytes: the disk tier stores it, or with none the RAM tier if admit
// lets it (see put). A key string is made only for an entry kept.
func (t *Tiered) PutState(key, raw []byte) {
	if t.disk != nil {
		t.disk.PutRaw(string(key), raw)
	} else if t.mem != nil {
		store(t.mem, key, nil, raw, solePut)
	}
}

// put is Do's table put: it freezes tbl and stores it in one tier. The
// disk tier keeps every put, and RAM takes what is read again by
// promotion (see tieredGet and GetStates), so a put RAM would evict
// unread costs it nothing. Without a disk tier, RAM stores the put if
// admit lets it.
func (t *Tiered) put(key string, tbl *table.Table, covered bool) {
	tbl.Freeze()
	if t.disk != nil {
		t.disk.put(key, tbl)
	} else if t.mem != nil {
		kind := solePut
		if covered {
			kind = coveredPut
		}
		store(t.mem, key, tbl, nil, kind)
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
// miss), so their ratio is the whole cache's hit rate. Puts and
// StatePuts count the write-through stores the cache kept: the disk
// tier's when there is one, else RAM's, whose declines are in
// Declined. Disk→RAM promotions appear solely in Promotions (the RAM
// tier's internal promote path skips its Puts counter).
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
		// Write-through puts land on disk alone (see put).
		s.Puts, s.StatePuts = ds.DiskPuts, ds.DiskStatePuts
		if t.mem == nil {
			s.Hits, s.Misses = ds.DiskHits, ds.DiskMisses
			s.Entries = ds.Entries
			s.StateHits, s.StateMisses = ds.DiskStateHits, ds.DiskStateMisses
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
