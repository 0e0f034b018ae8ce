package cache

import (
	"errors"
	"testing"
)

// Memo stores what fill builds, serves it while valid accepts it,
// replaces it when valid refuses it, never stores a failed fill or a
// value larger than MaxSize, and drops every entry when a store would
// overflow either bound.
func TestMemoBoundsAndValidation(t *testing.T) {
	m := &Memo[string, int]{MaxEntries: 3, MaxSize: 10}
	fills := 0
	load := func(k string, v, size int, valid func(int) bool) int {
		t.Helper()
		got, err := m.Load(k, valid, func() (int, int, error) { fills++; return v, size, nil })
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if load("a", 1, 2, nil) != 1 || load("a", 9, 2, nil) != 1 || fills != 1 {
		t.Fatalf("a repeat rebuilt its value (%d fills)", fills)
	}
	if load("a", 2, 2, func(v int) bool { return v == 2 }) != 2 || load("a", 9, 2, nil) != 2 {
		t.Fatal("an entry valid refused was not replaced")
	}
	if _, err := m.Load("e", nil, func() (int, int, error) { return 0, 0, errors.New("bad") }); err == nil {
		t.Fatal("fill's error was lost")
	}
	load("big", 5, 11, nil)
	load("b", 3, 2, nil)
	load("c", 4, 2, nil)
	if len(m.m) != 3 || m.size != 6 {
		t.Fatalf("after a, b, c: %d entries of size %d, want 3 of 6 (no failed or oversize entry)", len(m.m), m.size)
	}
	load("d", 5, 2, nil) // a fourth entry: everything goes first
	if len(m.m) != 1 || m.size != 2 {
		t.Fatalf("entry bound: %d entries of size %d after the drop, want 1 of 2", len(m.m), m.size)
	}
	load("e", 6, 9, nil) // 2+9 > 10
	if len(m.m) != 1 || m.size != 9 {
		t.Fatalf("size bound: %d entries of size %d after the drop, want 1 of 9", len(m.m), m.size)
	}
	if m.Hits.Load() != 2 || m.Misses.Load() != 8 {
		t.Fatalf("%d hits, %d misses; want 2, 8", m.Hits.Load(), m.Misses.Load())
	}
}
