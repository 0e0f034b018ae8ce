package table

import "math"

// Cell hashing for GROUP BY / JOIN key matching. The contract mirrors
// Value.Key() string equality without building the strings: key-equal
// cells hash identically, and CellKeyEqual is the exact equality check
// used to resolve hash collisions. Numbers hash their IEEE bits with
// every NaN normalized to one canonical pattern (all NaNs format as
// "NaN", so they are key-equal), while +0 and -0 keep distinct bits —
// they format as "0" and "-0" and were never key-equal.

// HashSeed is the initial accumulator for a HashCell chain; a single
// cell's chained hash equals its Value.KeyHash().
const HashSeed uint64 = fnvOffset

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	canonNaN  = 0x7ff8000000000000
	// tag bytes keep NUMBER and STRING content in disjoint hash spaces,
	// mirroring the "n:"/"s:" prefixes of Value.Key.
	tagNum = 0x01
	tagStr = 0x02
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashNum(h uint64, f float64) uint64 {
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		bits = canonNaN
	}
	h = hashByte(h, tagNum)
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(bits>>(8*i)))
	}
	return h
}

func hashStr(h uint64, s string) uint64 {
	h = hashByte(h, tagStr)
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

// HashCell folds the key hash of cell (i, j) into h. Chain calls across
// a key-column list to hash a composite grouping key.
func (t *Table) HashCell(h uint64, i, j int) uint64 {
	if t.Schema.Cols[j].Type == DNumber {
		return hashNum(h, t.cols[j].nums[i])
	}
	return hashStr(h, t.cols[j].strs[i])
}

// CellKeyEqual reports whether cell (ai, aj) of a and cell (bi, bj) of b
// are grouping-key equal (the Value.KeyEqual relation, cell-addressed).
func CellKeyEqual(a *Table, ai, aj int, b *Table, bi, bj int) bool {
	at, bt := a.Schema.Cols[aj].Type, b.Schema.Cols[bj].Type
	if at != bt {
		return false
	}
	if at == DString {
		return a.cols[aj].strs[ai] == b.cols[bj].strs[bi]
	}
	x, y := a.cols[aj].nums[ai], b.cols[bj].nums[bi]
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return x == y && math.Signbit(x) == math.Signbit(y)
}
