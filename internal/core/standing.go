package core

import (
	"fmt"
	"sync"
	"time"

	"privid/internal/query"
	"privid/internal/rel"
)

// StandingQuery is a long-running query over live video (Appendix D:
// SPLIT windows "may be in the past or future... any values that
// depend upon future timestamps will be released as soon as possible
// after all of the timestamps needed have elapsed").
//
// Each Advance releases — and pays budget for — exactly the data
// releases whose time span has fully elapsed and that have not been
// released before, so a standing hourly count over a year consumes
// each hour's budget once, as that hour's video arrives.
//
// Concurrency: StandingQuery is safe for concurrent use. Advance calls
// are serialized by an internal mutex — two Advance calls racing at
// the same `now` must not both see a bucket as unreleased, charge its
// budget twice, and emit it twice. Serialization is the correctness
// contract, not an implementation detail: exactly-once release is only
// defined with respect to a total order of Advance calls.
type StandingQuery struct {
	engine *Engine
	// p keeps the program's plan between Advances.
	p *Prepared

	// mu serializes Advance end to end. The filter callback passed to
	// execute reads released and appends to the call's newly slice;
	// two concurrent Advances race on both — a data race on the map,
	// and even with a per-access map lock both would see an elapsed
	// bucket as unreleased before either marks it, releasing and
	// charging it twice. Only whole-call serialization makes
	// exactly-once hold.
	mu       sync.Mutex
	released map[string]bool
}

// Standing prepares a standing query. The program must use trusted
// time-bucket grouping (bin/hour/day of chunk) or explicit keys so its
// release set is data-independent; any program Execute accepts works.
func (e *Engine) Standing(prog *query.Program) (*StandingQuery, error) {
	if prog == nil || len(prog.Selects) == 0 {
		return nil, fmt.Errorf("core: standing query needs at least one SELECT")
	}
	return &StandingQuery{
		engine:   e,
		p:        &Prepared{Program: prog},
		released: map[string]bool{},
	}, nil
}

// releaseKey identifies one release across Advance calls.
func releaseKey(r rel.Release) string {
	return r.Desc + "\x00" + r.Key.Key()
}

// Advance processes video up to `now` and returns the newly completed
// releases. Releases whose span extends past `now` stay pending; each
// release is returned (and charged) exactly once across the query's
// lifetime — including when Advance is called concurrently. Calling
// Advance with non-increasing times is allowed — nothing new is
// released.
func (sq *StandingQuery) Advance(now time.Time) (*Result, error) {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	var newly []string
	res, err := sq.engine.execute(sq.p, func(r rel.Release) bool {
		if r.End.After(now) {
			return false // bucket still accumulating
		}
		k := releaseKey(r)
		if sq.released[k] {
			return false
		}
		newly = append(newly, k)
		return true
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	// Mark only after a fully successful (admitted) execution, so a
	// denied Advance can be retried later without losing releases.
	for _, k := range newly {
		sq.released[k] = true
	}
	return res, nil
}

// Released returns how many releases the standing query has emitted so
// far.
func (sq *StandingQuery) Released() int {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return len(sq.released)
}

// ReleasedKeys snapshots the identities of every release emitted so
// far, for persisting across an engine restart. Feed the snapshot to
// RestoreReleased on the standing query rebuilt against the reopened
// engine; without it the new query would re-release (and re-charge)
// every elapsed bucket. Order is unspecified.
func (sq *StandingQuery) ReleasedKeys() []string {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	keys := make([]string, 0, len(sq.released))
	for k := range sq.released {
		keys = append(keys, k)
	}
	return keys
}

// RestoreReleased marks keys (from a prior ReleasedKeys snapshot) as
// already released, so Advance skips — and never re-charges — them.
// The budget itself survives restarts through the WAL; this restores
// the release-set half of exactly-once.
func (sq *StandingQuery) RestoreReleased(keys ...string) {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	for _, k := range keys {
		sq.released[k] = true
	}
}
