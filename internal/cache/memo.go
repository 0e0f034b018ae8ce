package cache

import (
	"sync"
	"sync/atomic"
)

// Memo is a bounded map for values that are pure functions of what
// their key names — a parsed program per source text, a pushdown plan
// per statement — so a hit can only save work, never change an answer.
// It holds at most MaxEntries values whose sizes (the caller's unit)
// sum to at most MaxSize. A store that would overflow either bound
// first drops every entry: a working set that fits refills with one
// miss per key, and a stream of keys that never repeat gains nothing
// from any eviction order. Hits and Misses count Load's outcomes.
type Memo[K comparable, V any] struct {
	MaxEntries, MaxSize int
	Hits, Misses        atomic.Uint64

	mu   sync.Mutex
	m    map[K]memoEntry[V]
	size int
}

type memoEntry[V any] struct {
	v    V
	size int
}

// Load returns the value stored under k if valid (nil accepts any)
// holds for it. Otherwise it builds one with fill — outside the lock,
// so concurrent misses on one key may each build — and, unless fill
// failed, stores it under k in place of any older entry.
func (c *Memo[K, V]) Load(k K, valid func(V) bool, fill func() (V, int, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.m[k]
	c.mu.Unlock()
	if ok && (valid == nil || valid(e.v)) {
		c.Hits.Add(1)
		return e.v, nil
	}
	c.Misses.Add(1)
	v, size, err := fill()
	if err != nil || size > c.MaxSize {
		return v, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.size -= c.m[k].size
	delete(c.m, k)
	if c.m == nil || len(c.m) >= c.MaxEntries || c.size+size > c.MaxSize {
		c.m, c.size = map[K]memoEntry[V]{}, 0
	}
	c.m[k], c.size = memoEntry[V]{v, size}, c.size+size
	return v, nil
}
