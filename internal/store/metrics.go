package store

import "privid/internal/obs"

// Metrics holds the WAL's hot-path instruments. The engine registers
// them in its metrics registry and passes them in via Options; every
// field is optional (a nil instrument no-ops), so the zero Metrics
// disables instrumentation entirely.
//
// Scrape-time state — log size, generation, records since snapshot,
// snapshot counts — is not here: it is already exposed by Info() and
// exported through registry collectors, so the hot path never mirrors
// it.
type Metrics struct {
	// AppendSeconds observes one durable append: frame write + fsync.
	AppendSeconds *obs.Histogram
	// FsyncSeconds observes just the fsync portion of an append — the
	// part group commit amortizes across batched records.
	FsyncSeconds *obs.Histogram
	// CommitRecords observes how many records shared one durable append:
	// the records of every commit in its group-commit batch.
	CommitRecords *obs.Histogram
}
