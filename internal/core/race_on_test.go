//go:build race

package core

// raceEnabled is true under the race detector, where sync.Pool drops a
// random quarter of what is put back — so pooled objects are allocated
// again and an allocation count is not the program's.
const raceEnabled = true
