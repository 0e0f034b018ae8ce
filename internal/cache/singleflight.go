package cache

// Flight coalesces concurrent executions of the same chunk key onto
// one sandbox run (singleflight). The cold path is the one cost the
// aggregate/noise pipeline can never hide: every cache-miss chunk pays
// a full sandboxed PROCESS execution, so N analysts submitting the
// same popular window concurrently would pay that cost N times over.
// With a Flight in front, the first miss on a key becomes the
// *leader* and executes; every concurrent miss on the same key becomes
// a *follower* that waits and shares the leader's frozen result by
// pointer.
//
// Failure semantics (cancellation-safe leader handoff): a leader whose
// execution does not complete cleanly — the sandbox substituted
// default rows for a timeout or panic, or the execution function
// itself panicked — publishes no result. Instead it hands leadership
// to exactly one waiting follower (a *handoff*), which executes for
// itself while the remaining followers keep waiting on the new leader.
// A failed leader can therefore never wedge its followers, and a
// deterministic crasher degrades to today's behavior (each query
// executes in turn) rather than poisoning anyone with load-dependent
// fallback rows.
//
// Followers additionally bound their wait: a follower that has waited
// maxWait gives up on the leader entirely and executes on its own
// (counted in Timeouts). This caps the blast radius of a leader stuck
// behind a pathological executable at one extra execution per waiter,
// instead of an unbounded convoy.
//
// Privacy: a Flight sits strictly on the cost side of the engine,
// exactly like the chunk cache it fronts (see the package comment).
// Sharing a frozen table between concurrent queries changes how fast
// each query's intermediate table materializes — never which releases
// are admitted, how much ε they consume, or how much noise they carry.

import (
	"sync"
	"sync/atomic"
	"time"

	"privid/internal/table"
)

// Outcome reports how a Do call obtained its result.
type Outcome int

const (
	// Led: this call was the leader and executed fn.
	Led Outcome = iota
	// Shared: this call waited and shares the leader's result by
	// pointer.
	Shared
	// Handoff: the original leader failed; this call was promoted and
	// executed fn itself.
	Handoff
	// Abandoned: this call waited maxWait without a result, gave up on
	// the leader, and executed fn on its own (uncoordinated).
	Abandoned
	// Hit: Tiered.Do found the entry stored; no flight was joined.
	Hit
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Led:
		return "led"
	case Shared:
		return "shared"
	case Handoff:
		return "handoff"
	case Abandoned:
		return "abandoned"
	case Hit:
		return "hit"
	default:
		return "unknown"
	}
}

// FlightStats is a snapshot of a Flight's counters.
type FlightStats struct {
	// Leaders counts executions performed under key leadership —
	// initial leaders plus promoted followers (Handoffs ⊆ Leaders).
	Leaders uint64
	// Followers counts calls served from a leader's result by pointer
	// (the executions singleflight saved).
	Followers uint64
	// Handoffs counts followers promoted to leader after their
	// leader's execution failed.
	Handoffs uint64
	// Timeouts counts followers that waited maxWait, gave up, and
	// executed on their own.
	Timeouts uint64
	// Waiting is the current number of followers blocked on a leader.
	Waiting int64
}

// flightCall is one in-flight key.
//
// done and token exist only once somebody waits: the first follower to
// arrive makes both under Flight.mu, so a leader nobody joins — every
// chunk of a cold scan — allocates the call and nothing else. done is
// closed exactly once, on a clean publish, after tbl is set and the
// call is removed from the map. token carries leadership after a
// failure: the failed leader pushes into it (buffered, never blocks)
// and exactly one waiter receives it and leads the same call, so a
// late-waking follower can never re-execute a key whose result was
// already published. waiters is guarded by Flight.mu; when a failed
// leader finds no waiters — or the last waiter times out with a
// handoff token pending — the call is retired from the map instead. A
// clean publish zeroes waiters while retiring the call, so followers
// woken by the done broadcast return without reacquiring the lock.
type flightCall struct {
	done    chan struct{}
	token   chan struct{}
	tbl     *table.Table
	waiters int
}

// Flight deduplicates concurrent executions per key. The zero value is
// not usable; use NewFlight. Safe for concurrent use.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall

	leaders, followers, handoffs, timeouts atomic.Uint64
	waiting                                atomic.Int64
}

// NewFlight returns an empty Flight.
func NewFlight() *Flight {
	return &Flight{calls: map[string]*flightCall{}}
}

// Do executes fn under singleflight semantics for key. fn returns the
// chunk's result table and whether the execution completed cleanly;
// only clean results are published to followers (Tiered.Do's fn
// freezes and stores a clean result before returning, so arrivals after
// the flight dissolves hit the cache instead).
//
// maxWait bounds a follower's wait for its leader; <= 0 waits forever.
// The returned table is the leader's table itself for Shared outcomes
// (frozen, shared by pointer — callers must not mutate it).
func (f *Flight) Do(key string, maxWait time.Duration, fn func() (*table.Table, bool)) (*table.Table, bool, Outcome) {
	f.mu.Lock()
	c, ok := f.calls[key]
	if !ok {
		c = &flightCall{}
		f.calls[key] = c
		f.mu.Unlock()
		tbl, clean := f.lead(key, c, fn, false)
		return tbl, clean, Led
	}
	if c.done == nil {
		c.done, c.token = make(chan struct{}), make(chan struct{}, 1)
	}
	c.waiters++
	f.mu.Unlock()

	var deadline <-chan time.Time
	if maxWait > 0 {
		timer := time.NewTimer(maxWait)
		defer timer.Stop()
		deadline = timer.C
	}
	f.waiting.Add(1)
	select {
	case <-c.done:
		// Lock-free wakeup: a clean publish retires the call and zeroes
		// its waiter count in one critical section on the leader's side,
		// so N followers waking here cost one broadcast (the close)
		// instead of N serialized trips through f.mu.
		f.waiting.Add(-1)
		f.followers.Add(1)
		return c.tbl, true, Shared
	case <-c.token:
		// Promoted: the previous leader failed and handed off.
		f.waiting.Add(-1)
		f.mu.Lock()
		c.waiters--
		f.mu.Unlock()
		tbl, clean := f.lead(key, c, fn, true)
		return tbl, clean, Handoff
	case <-deadline:
		f.waiting.Add(-1)
		f.mu.Lock()
		// The leader may have published (zeroing waiters) between the
		// deadline firing and this lock acquisition.
		if c.waiters > 0 {
			c.waiters--
		}
		if c.waiters == 0 {
			// If a handoff token is pending and we were its only
			// audience, retire the call so the key starts fresh.
			select {
			case <-c.token:
				delete(f.calls, key)
			default:
			}
		}
		f.mu.Unlock()
		f.timeouts.Add(1)
		tbl, clean := fn()
		return tbl, clean, Abandoned
	}
}

// lead runs fn as key's leader and publishes the verdict. On a clean
// result the call is removed from the map *before* done is closed (the
// result is already in the chunk cache by then — fn caches before
// returning — so arrivals in the gap hit the cache). On a failure
// leadership is handed to one waiter via the call's token, or the call
// is retired when nobody is waiting. A panic out of fn takes the
// failure path (handoff, never a wedge), then propagates.
func (f *Flight) lead(key string, c *flightCall, fn func() (*table.Table, bool), promoted bool) (tbl *table.Table, clean bool) {
	f.leaders.Add(1)
	if promoted {
		f.handoffs.Add(1)
	}
	defer func() {
		f.mu.Lock()
		if clean {
			// Retire the call and settle every waiter's bookkeeping in
			// this one critical section; the close below then wakes all
			// followers at once and they return without touching f.mu.
			delete(f.calls, key)
			c.waiters = 0
			f.mu.Unlock()
			// Retired under the lock: no follower can arrive to make
			// done after this read of it.
			if c.done != nil {
				close(c.done)
			}
			return
		}
		if c.waiters > 0 {
			c.token <- struct{}{} // a waiter made it; buffered: never blocks
		} else {
			delete(f.calls, key)
		}
		f.mu.Unlock()
	}()
	tbl, clean = fn()
	c.tbl = tbl
	return tbl, clean
}

// Stats returns a snapshot of the Flight's counters.
func (f *Flight) Stats() FlightStats {
	return FlightStats{
		Leaders:   f.leaders.Load(),
		Followers: f.followers.Load(),
		Handoffs:  f.handoffs.Load(),
		Timeouts:  f.timeouts.Load(),
		Waiting:   f.waiting.Load(),
	}
}

// InFlight returns the number of keys currently executing (tests and
// debugging).
func (f *Flight) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
