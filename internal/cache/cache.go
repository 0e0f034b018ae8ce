// Package cache provides the concurrency-safe, size-bounded caches the
// engine uses to memoize PROCESS results per chunk: a tier-1 in-RAM
// LRU of immutable columnar tables and an optional tier-2 append-only
// disk store (disk.go) that survives process restarts, composed by
// Tiered (tiered.go). With a disk tier, the engine's puts land on disk
// alone and RAM's candidates are the disk hits, each one copy out of
// memory; without one, they are the engine's puts. Either way one rule,
// LRU.admit, decides what RAM keeps.
//
// Why memoization is sound: the sandbox contract (Appendix B, enforced
// by internal/sandbox) requires every ProcessFunc to be a pure function
// of its chunk — no state may survive across invocations and nothing
// but the chunk's frames may influence the output. Two chunks that show
// the same camera through the same mask over the same absolute frame
// range, cropped to the same region and processed by the same
// executable under the same schema/row/timeout limits, are therefore
// interchangeable, and the intermediate-table rows they produce can be
// reused across queries and across overlapping SPLIT windows.
//
// Why memoization is private: the cache sits strictly on the cost side
// of the engine. Budget admission (Algorithm 1) charges a query for the
// frame intervals its releases depend on, whether or not the rows that
// produced those releases came from a cache hit — a hit changes how
// fast an answer is computed, never which answers are admitted, how
// much ε they consume, or how much noise they carry.
//
// Why sharing is safe: Put freezes the stored table (table.Freeze), so
// every Get can hand back the same *table.Table without copying — any
// attempted mutation panics instead of corrupting other readers. A
// payload RAM keeps is never a caller's buffer: a promotion stores a
// copy of its own. The engine stamps implicit columns via
// Table.AppendBlock, which copies out of the frozen block rather than
// appending to its rows.
package cache

import (
	"hash/maphash"
	"slices"
	"sync"

	"privid/internal/table"
)

// entryOverhead approximates the fixed bookkeeping bytes per cache
// entry (map bucket, list links, key string header, slice headers).
const entryOverhead = 128

// Stats is a snapshot of cache effectiveness counters. Tier-1 (RAM)
// counters are always populated; Disk* fields stay zero unless a disk
// tier is configured.
type Stats struct {
	// Hits and Misses count Get outcomes since construction. For a
	// tiered cache a Get that is served by either tier counts as a hit.
	Hits, Misses uint64
	// Puts counts stored entries (including overwrites). Disk→RAM
	// promotions are deliberately excluded — they are tier migrations,
	// counted in Promotions — so Puts reflects real write-through
	// traffic.
	Puts uint64
	// Evictions counts entries dropped to stay under the byte bound.
	Evictions uint64
	// Declined counts the engine puts a RAM tier without a disk tier
	// did not store because it would not have kept them (see admit);
	// they are not in Puts or StatePuts.
	Declined uint64
	// Entries is the current entry count.
	Entries int
	// Bytes is the current approximate memory footprint.
	Bytes int64
	// MaxBytes is the configured bound.
	MaxBytes int64

	// DiskHits and DiskMisses count lookups that fell through to the
	// disk tier and whether it held the entry.
	DiskHits, DiskMisses uint64
	// DiskPuts counts entries appended to the disk tier.
	DiskPuts uint64
	// Promotions counts disk hits admitted back into the RAM tier; a
	// hit RAM would not keep (see Tiered) is not promoted.
	Promotions uint64
	// DiskBytes and DiskMaxBytes are the current and configured size
	// of the disk tier; DiskSegments is its segment-file count.
	DiskBytes, DiskMaxBytes int64
	DiskSegments            int
	// DiskEvictions counts whole segments dropped to respect
	// DiskMaxBytes.
	DiskEvictions uint64

	// StateHits/StateMisses/StatePuts count the raw partial-state tier
	// (GetRaw/PutRaw): encoded mergeable aggregate states keyed on
	// chunk content × aggregation-plan identity. They are accounted
	// separately from the table counters above so the table-tier hit
	// rate and write-through rate stay comparable across releases that
	// predate aggregation pushdown.
	StateHits, StateMisses, StatePuts uint64
	// DiskStateHits/DiskStateMisses/DiskStatePuts are the disk tier's
	// share of the raw-state traffic.
	DiskStateHits, DiskStateMisses, DiskStatePuts uint64
}

// LRU is a least-recently-used cache from string keys to frozen
// intermediate tables, bounded by approximate total bytes. It is safe
// for concurrent use.
type LRU struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	root     lruEntry // ring sentinel: root.next = most recent, root.prev = oldest
	items    map[string]*lruEntry
	history  []uint64 // declined keys by bucket; built at the first decline (see admit)
	tick     uint32   // rulings that reached the history, its clock

	hits, misses, puts, evictions, declined uint64
	stateHits, stateMisses, statePuts       uint64
}

// lruEntry is one cached value: a frozen table (tbl non-nil) or a raw
// partial-state payload (tbl nil, raw set). The two kinds share the
// recency list and byte bound — a hot table can evict a cold state and
// vice versa. The list is intrusive (an entry is its own node), and a
// store at capacity reuses the node it evicts, so fields are read only
// under LRU.mu: a node may carry another key once the lock is released.
type lruEntry struct {
	prev, next *lruEntry
	key        string
	tbl        *table.Table
	raw        []byte
	cost       int64
	used       bool // hit by a counted lookup since it was stored, or a covered table (see admit)
}

// cacheKey is a key as a caller holds it: a string, or bytes on a chunk
// worker's stack. Lookups index m[string(key)], which allocates nothing;
// stores take a string, which only a caller keeping an entry makes.
type cacheKey interface{ string | []byte }

// unlink takes e out of the recency ring.
func (e *lruEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// toFront makes e (unlinked, or new) the most recent entry.
func (c *LRU) toFront(e *lruEntry) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// New returns an empty cache bounded at maxBytes (approximate).
// maxBytes <= 0 yields a cache that stores nothing, so callers may
// treat "no cache" uniformly.
func New(maxBytes int64) *LRU {
	c := &LRU{maxBytes: maxBytes, items: map[string]*lruEntry{}}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// tableCost approximates the memory footprint of one entry.
func tableCost[K cacheKey](key K, t *table.Table) int64 {
	return int64(entryOverhead+len(key)) + t.MemBytes()
}

// Get returns the frozen table stored under key (shared, not copied)
// and marks the entry most recently used.
func (c *LRU) Get(key string) (*table.Table, bool) {
	c.mu.Lock()
	tbl, _, ok := lruGet(c, key, false, true)
	c.mu.Unlock()
	return tbl, ok
}

// GetRaw returns the raw partial-state payload stored under key
// (shared, not copied) and marks the entry most recently used.
func (c *LRU) GetRaw(key string) ([]byte, bool) {
	c.mu.Lock()
	_, raw, ok := lruGet(c, key, true, true)
	c.mu.Unlock()
	return raw, ok
}

// lruGet is the one lookup body: the table (raw false) or the raw
// payload (raw true) stored under key. A counted lookup bumps the
// kind's hit or miss counter and marks a hit most recently used; an
// uncounted one (the flight leader's re-check) touches neither. Caller
// holds c.mu, for one lookup or for a batch of them (Tiered.GetStates).
func lruGet[K cacheKey](c *LRU, key K, raw, count bool) (*table.Table, []byte, bool) {
	ent, ok := c.items[string(key)]
	ok = ok && (ent.tbl == nil) == raw
	hits, misses := &c.hits, &c.misses
	if raw {
		hits, misses = &c.stateHits, &c.stateMisses
	}
	switch {
	case !ok:
		if count {
			*misses++
		}
		return nil, nil, false
	case count:
		*hits++
		ent.used = true
		ent.unlink()
		c.toFront(ent)
	}
	return ent.tbl, ent.raw, true
}

// Put freezes t and stores it under key, evicting least-recently-used
// entries as needed to respect the byte bound. The caller must not
// mutate t after Put (Freeze makes any attempt panic). An entry larger
// than the whole bound is not stored.
func (c *LRU) Put(key string, t *table.Table) { store(c, key, t, nil, plainPut) }

// PutRaw stores a raw partial-state payload under key, subject to the
// same byte bound and eviction policy as tables. The caller must not
// mutate raw afterwards.
func (c *LRU) PutRaw(key string, raw []byte) { store(c, key, nil, raw, plainPut) }

// storeKind says how store treats an entry.
type storeKind uint8

const (
	plainPut   storeKind = iota // stored and counted: LRU.Put, LRU.PutRaw and Tiered.PutRaw
	promotion                   // a counted disk hit: ruled on by admit, counted in neither Puts nor Declined
	coveredPut                  // a table its chunk's partial states stand in for: counted if admit stores it
	solePut                     // any other engine put: likewise, but see admit
)

// store inserts or overwrites key's entry with a table (t non-nil,
// frozen here, even when it is declined, so that a flight can share
// it) or a raw payload (t nil), and reports whether it stored it, with
// the payload it keeps. Every kind but a plain put is a candidate for
// RAM that admit rules on when RAM does not hold the key (a promotion
// is ruled on first); one it declines makes no key string, no map
// entry and no eviction. A
// promotion is a disk hit migrating to RAM: it keeps a copy of the
// payload, which is the caller's buffer, is not counted in Puts or
// StatePuts (it was written through already; Tiered counts it in
// Stats.Promotions), and stores nothing when RAM already holds the key.
//
// It evicts before it inserts, and a new key takes over the node the
// last eviction freed. The entry being stored is out of the ring while
// the oldest are dropped, so the victims are exactly those that
// inserting first and then evicting down to the bound would drop.
func store[K cacheKey](c *LRU, key K, t *table.Table, raw []byte, kind storeKind) ([]byte, bool) {
	cost := int64(entryOverhead + len(key) + len(raw))
	if t != nil {
		cost = tableCost(key, t.Freeze())
	}
	var h uint64
	if kind != plainPut {
		h = keyHash(key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return storeLocked(c, key, t, raw, kind, cost, h)
}

// storeLocked is store's body, given the entry's cost and, for every
// kind but a plain put, its key hash, both computed outside the lock.
// Caller holds c.mu, for one store or for a batch's promotions
// (Tiered.GetStates).
func storeLocked[K cacheKey](c *LRU, key K, t *table.Table, raw []byte, kind storeKind, cost int64, h uint64) ([]byte, bool) {
	if cost > c.maxBytes-int64(8*len(c.history)) {
		// Too large to ever fit; admitting it would flush everything.
		return nil, false
	}
	// A promotion is ruled on before the map is read: most are declined,
	// and RAM holds the key only if a concurrent lookup promoted it first.
	if kind == promotion && !c.admit(h, cost, kind) {
		return nil, false
	}
	ent, ok := c.items[string(key)]
	if ok && kind == promotion || !ok && kind >= coveredPut && !c.admit(h, cost, kind) {
		return nil, false
	}
	if kind == promotion {
		raw = slices.Clone(raw) // nil for a table
	} else if t != nil {
		c.puts++
	} else {
		c.statePuts++
	}
	if ok {
		c.bytes -= ent.cost
		ent.unlink()
	}
	var freed *lruEntry
	for c.bytes+cost > c.maxBytes {
		freed = c.evictOldest()
	}
	if !ok {
		if ent = freed; ent == nil {
			ent = &lruEntry{}
		}
		ent.key = string(key)
		c.items[ent.key] = ent
	}
	ent.tbl, ent.raw, ent.cost, ent.used = t, raw, cost, kind == coveredPut
	c.toFront(ent)
	c.bytes += cost
	return raw, true
}

// historyWays is the associativity of the decline history: a bucket of
// slots is one 64-byte cache line.
const historyWays = 8

// admit is the one rule for what RAM keeps: it rules on a candidate of
// the given kind, cost bytes and key hash h that RAM does not hold. It
// is stored if RAM can take it without evicting, or if the same key was
// declined no more than len(c.items) rulings ago (c.tick counts the
// rulings that reached the history), the horizon within which RAM
// would still hold it had it been stored then; otherwise it is
// declined. A key cycle longer than RAM therefore never churns through
// it, while a key that comes round again within the horizon gets in.
//
// That is the whole rule for a promotion, whose decline costs a disk
// read when the key comes back, and for a covered table
// (Tiered.DoCovered), which is not looked up again while its chunk's
// states are cached, so a decline costs nothing. For a sole put, a
// decline costs a sandbox execution when the key comes back, so the put
// is also stored if every entry it would evict is used: hit since it
// was stored, or a covered table, whose chunk is read through its
// states. Entries that were in use and are now the least recent are
// what a window that moves on leaves behind, and LRU's bet on the
// newcomer is the right one; an entry nobody read while it aged through
// the whole tier is what a scan leaves, and the scan's next put would
// be no better.
//
// Declines are remembered in c.history: buckets of historyWays slots,
// two slots per resident entry when it is built at the first decline,
// each holding a key's 32-bit tag and the tick of its decline. A
// decline takes an empty slot of its key's bucket, or one whose decline
// has left the horizon; it is not recorded when all of them hold
// declines within it (evicting one would let a key cycle one longer
// than the bucket forget every key in turn), and a record is cleared
// when its key is admitted, so a key evicted later must be declined
// and recur again to come back. A decline is forgotten within the
// horizon only when more than historyWays declines within it share its
// bucket, which holds four on average: fewer than one key in a hundred
// at the horizon's far end (TestTieredAdmitsRepeatedPutsAtHorizon
// measures the rate). A tag that matches another key's admits an
// entry; either way the error is on the cost side. The history's bytes
// count in c.bytes; a decline evicts nothing, so the next entry stored
// makes room for them. Declined counts the engine puts declined, not
// the promotions. Caller holds c.mu.
func (c *LRU) admit(h uint64, cost int64, kind storeKind) bool {
	if c.bytes+cost <= c.maxBytes {
		return true
	}
	if kind == solePut && c.evictsOnlyUsed(c.bytes+cost-c.maxBytes) {
		return true
	}
	if c.history == nil {
		buckets := max(1, (2*len(c.items)+historyWays-1)/historyWays)
		c.history = make([]uint64, buckets*historyWays)
		c.bytes += int64(8 * len(c.history))
	}
	c.tick++
	i := historyWays * int((h>>32)*uint64(len(c.history)/historyWays)>>32)
	bucket := c.history[i : i+historyWays]
	tag, free := uint32(h)|1, -1
	for j, slot := range bucket {
		if slot == 0 || c.tick-uint32(slot>>32) > uint32(len(c.items)) {
			free = max(free, j)
		} else if uint32(slot) == tag {
			bucket[j] = 0
			return true
		}
	}
	if free >= 0 {
		bucket[free] = uint64(c.tick)<<32 | uint64(tag)
	}
	if kind != promotion {
		c.declined++
	}
	return false
}

// evictsOnlyUsed reports whether freeing over bytes from the tail of
// the ring would evict used entries alone. Caller holds c.mu.
func (c *LRU) evictsOnlyUsed(over int64) bool {
	for e := c.root.prev; over > 0; e = e.prev {
		if e == &c.root || !e.used {
			return false
		}
		over -= e.cost
	}
	return true
}

// hashSeed seeds keyHash for the life of the process.
var hashSeed = maphash.MakeSeed()

// keyHash hashes a key as either form a caller holds it in; the two
// agree for equal contents.
func keyHash[K cacheKey](key K) uint64 {
	switch k := any(key).(type) {
	case string:
		return maphash.String(hashSeed, k)
	case []byte:
		return maphash.Bytes(hashSeed, k)
	}
	panic("unreachable")
}

// evictOldest drops the least-recently-used entry and returns its node
// for reuse. Caller holds c.mu, and the ring is not empty.
func (c *LRU) evictOldest() *lruEntry {
	ent := c.root.prev
	ent.unlink()
	delete(c.items, ent.key)
	c.bytes -= ent.cost
	c.evictions++
	return ent
}

// Stats returns a snapshot of the cache counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Puts:        c.puts,
		Evictions:   c.evictions,
		Declined:    c.declined,
		Entries:     len(c.items),
		Bytes:       c.bytes,
		MaxBytes:    c.maxBytes,
		StateHits:   c.stateHits,
		StateMisses: c.stateMisses,
		StatePuts:   c.statePuts,
	}
}
