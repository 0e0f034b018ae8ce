// Package table implements Privid's intermediate tables: the untrusted
// tabular output of the analyst's per-chunk processing executables
// (§6.2). Values are typed STRING or NUMBER per the query grammar
// (Appendix D); every table additionally carries the implicit "chunk"
// column (the timestamp of the chunk's first frame) and, when spatial
// splitting is used, the implicit "region" column. Privid trusts these
// two columns (it creates them) and nothing else.
//
// Storage is column-major: each column is a []float64 or []string with
// a precomputed numeric view for STRING columns, so coercion to the
// declared schema happens exactly once, at ingest, rather than on every
// Num() call inside aggregation loops. The Row-oriented API (Row, At,
// Rows) materializes on demand and is unchanged for callers.
package table

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// DType is the data type of a column: STRING or NUMBER.
type DType int

const (
	// DString is an arbitrary string column.
	DString DType = iota
	// DNumber is a floating-point numeric column.
	DNumber
)

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case DString:
		return "STRING"
	case DNumber:
		return "NUMBER"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// Value is a typed scalar. The zero Value is the empty STRING.
type Value struct {
	typ DType
	s   string
	n   float64
}

// S returns a STRING value.
func S(s string) Value { return Value{typ: DString, s: s} }

// N returns a NUMBER value.
func N(n float64) Value { return Value{typ: DNumber, n: n} }

// Type returns the value's data type.
func (v Value) Type() DType { return v.typ }

// Str returns the string content; NUMBER values are formatted.
func (v Value) Str() string {
	if v.typ == DNumber {
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	}
	return v.s
}

// parseNum is the single coercion rule from STRING content to a number:
// parse if possible, otherwise 0 (the paper's schema coercion — untrusted
// output is forced into the declared schema).
func parseNum(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if len(s) == 0 {
		return 0, false
	}
	// strconv.ParseFloat allocates a *NumError on failure, which on the
	// ingest path means one garbage allocation per non-numeric cell.
	// Every string ParseFloat accepts starts with a digit, sign, dot,
	// or an inf/nan spelling, so anything else is rejected up front.
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.',
		c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// Num returns the numeric content; STRING values parse if possible and
// otherwise yield 0.
func (v Value) Num() float64 {
	if v.typ == DNumber {
		return v.n
	}
	f, _ := parseNum(v.s)
	return f
}

// Equal reports deep equality of two values (type and content).
func (v Value) Equal(o Value) bool {
	if v.typ != o.typ {
		return false
	}
	if v.typ == DNumber {
		return v.n == o.n || (math.IsNaN(v.n) && math.IsNaN(o.n))
	}
	return v.s == o.s
}

// Key returns a map-key-safe representation used for GROUP BY and JOIN
// matching.
func (v Value) Key() string {
	if v.typ == DNumber {
		return "n:" + strconv.FormatFloat(v.n, 'g', -1, 64)
	}
	return "s:" + v.s
}

// KeyEqual reports whether two values have equal grouping keys, i.e.
// v.Key() == o.Key() without formatting either. Numbers compare by
// their canonical decimal form: NaNs are key-equal, +0 and -0 are not
// (they format as "0" and "-0").
func (v Value) KeyEqual(o Value) bool {
	if v.typ != o.typ {
		return false
	}
	if v.typ == DString {
		return v.s == o.s
	}
	if math.IsNaN(v.n) || math.IsNaN(o.n) {
		return math.IsNaN(v.n) && math.IsNaN(o.n)
	}
	return v.n == o.n && math.Signbit(v.n) == math.Signbit(o.n)
}

// KeyHash returns a 64-bit hash consistent with KeyEqual: key-equal
// values hash identically.
func (v Value) KeyHash() uint64 {
	if v.typ == DNumber {
		return hashNum(fnvOffset, v.n)
	}
	return hashStr(fnvOffset, v.s)
}

// String implements fmt.Stringer.
func (v Value) String() string { return v.Str() }

// wireValue is Value's JSON form: {"t":"n","n":…} or {"t":"s","s":…}.
type wireValue struct {
	T string  `json:"t"`
	S string  `json:"s,omitempty"`
	N float64 `json:"n,omitempty"`
}

// MarshalJSON implements json.Marshaler so values survive persistence
// (the serving layer's durable job results) without losing their type.
func (v Value) MarshalJSON() ([]byte, error) {
	if v.typ == DNumber {
		return json.Marshal(wireValue{T: "n", N: v.n})
	}
	return json.Marshal(wireValue{T: "s", S: v.s})
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(b []byte) error {
	var w wireValue
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	switch w.T {
	case "n":
		*v = N(w.N)
	case "s":
		*v = S(w.S)
	default:
		return fmt.Errorf("table: unknown value type %q", w.T)
	}
	return nil
}

// Coerce forces v to type t, converting content as needed.
func (v Value) Coerce(t DType) Value {
	if v.typ == t {
		return v
	}
	if t == DNumber {
		return N(v.Num())
	}
	return S(v.Str())
}

// Column describes one column of an intermediate-table schema. Default
// is the value emitted when the analyst's executable crashes or exceeds
// its TIMEOUT (Appendix D).
type Column struct {
	Name    string
	Type    DType
	Default Value
}

// Reserved implicit column names. Privid adds these to every table; the
// analyst's schema may not redeclare them.
const (
	ChunkColumn  = "chunk"
	RegionColumn = "region"
	CameraColumn = "camera"
)

// Schema is an ordered set of columns.
type Schema struct {
	Cols []Column
}

// NewSchema validates and returns a schema from analyst-declared
// columns. Duplicate or reserved names are rejected.
func NewSchema(cols ...Column) (Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		name := c.Name
		if name == "" {
			return Schema{}, fmt.Errorf("table: empty column name")
		}
		if name == ChunkColumn || name == RegionColumn || name == CameraColumn {
			return Schema{}, fmt.Errorf("table: column name %q is reserved", name)
		}
		if seen[name] {
			return Schema{}, fmt.Errorf("table: duplicate column %q", name)
		}
		seen[name] = true
	}
	return Schema{Cols: append([]Column(nil), cols...)}, nil
}

// MustSchema is NewSchema that panics on error, for tests and fixtures.
func MustSchema(cols ...Column) Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains the named column.
func (s Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// DefaultRow returns the row of per-column default values, emitted when
// a chunk's processing crashes or times out.
func (s Schema) DefaultRow() Row {
	r := make(Row, len(s.Cols))
	for i, c := range s.Cols {
		r[i] = c.Default.Coerce(c.Type)
	}
	return r
}

// WithImplicit returns a copy of the schema with the implicit chunk
// column and, if region is true, the implicit region column appended.
func (s Schema) WithImplicit(region bool) Schema {
	return s.WithImplicitCols(region, false)
}

// WithImplicitCols returns a copy of the schema with the implicit
// trusted columns appended: chunk always, region when the split used
// BY REGION, and camera when the chunk set spans multiple cameras
// (multi-camera SPLIT or MERGE) so every row carries engine-stamped
// provenance.
func (s Schema) WithImplicitCols(region, camera bool) Schema {
	cols := append([]Column(nil), s.Cols...)
	cols = append(cols, Column{Name: ChunkColumn, Type: DNumber, Default: N(0)})
	if region {
		cols = append(cols, Column{Name: RegionColumn, Type: DString, Default: S("")})
	}
	if camera {
		cols = append(cols, Column{Name: CameraColumn, Type: DString, Default: S("")})
	}
	return Schema{Cols: cols}
}

// Row is one record of an intermediate table, positionally matching a
// Schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Conform coerces the untrusted raw row into the schema: extra columns
// are dropped, missing columns are filled with defaults, and each value
// is coerced to the declared type. This implements the paper's rule
// that Privid "interprets the output of each chunk according to the
// PROCESS schema and ignores extraneous columns".
func (s Schema) Conform(raw Row) Row {
	out := make(Row, len(s.Cols))
	for i, c := range s.Cols {
		if i < len(raw) {
			out[i] = raw[i].Coerce(c.Type)
		} else {
			out[i] = c.Default.Coerce(c.Type)
		}
	}
	return out
}

// column is the column-major backing of one schema column. NUMBER
// columns populate nums only. STRING columns hold strs plus a numeric
// view (nums, valid) computed once at ingest, so aggregation over a
// STRING column never re-parses.
type column struct {
	nums  []float64
	strs  []string
	valid []bool
}

// Table is an ordered collection of rows with a schema. The contents
// are untrusted (analyst-generated); only the schema shape and the
// implicit columns are trusted. Storage is column-major; a frozen table
// rejects mutation, letting caches hand out shared references.
type Table struct {
	Schema Schema

	cols   []column
	n      int
	frozen bool
}

// New returns an empty table with the given schema.
func New(s Schema) *Table {
	return &Table{Schema: s, cols: make([]column, len(s.Cols))}
}

// FromRows builds a table from the schema and rows, coercing each cell
// to the declared column type at ingest.
//
// Because the row count is known up front, storage is carved out of
// arena blocks — one []float64, one []string and one []bool allocation
// for the whole table regardless of column count — instead of growing
// each column slice independently as Append does. This is the PROCESS
// ingest path (every sandbox execution materializes its rows through
// here), so the builder allocation count is part of the CI bench
// contract. Each column gets a capacity-clipped view of its arena
// region, so a later Append on any column reallocates that column
// rather than clobbering its neighbor.
func FromRows(s Schema, rows []Row) *Table {
	t := New(s)
	n := len(rows)
	if n == 0 {
		return t
	}
	nc := len(s.Cols)
	strCols := 0
	for _, c := range s.Cols {
		if c.Type == DString {
			strCols++
		}
	}
	numArena := make([]float64, nc*n)
	var strArena []string
	var validArena []bool
	if strCols > 0 {
		strArena = make([]string, strCols*n)
		validArena = make([]bool, strCols*n)
	}
	si := 0
	for j := range s.Cols {
		c := &t.cols[j]
		c.nums = numArena[j*n : (j+1)*n : (j+1)*n]
		if s.Cols[j].Type == DString {
			c.strs = strArena[si*n : (si+1)*n : (si+1)*n]
			c.valid = validArena[si*n : (si+1)*n : (si+1)*n]
			si++
		}
	}
	for i, r := range rows {
		if len(r) != nc {
			panic(fmt.Sprintf("table: row width %d != schema width %d", len(r), nc))
		}
		for j := range s.Cols {
			c := &t.cols[j]
			if s.Cols[j].Type == DNumber {
				c.nums[i] = r[j].Num()
				continue
			}
			str := r[j].Str()
			f, ok := parseNum(str)
			c.strs[i] = str
			c.nums[i] = f
			c.valid[i] = ok
		}
	}
	t.n = n
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Frozen reports whether the table is immutable.
func (t *Table) Frozen() bool { return t.frozen }

// Freeze marks the table immutable: any further mutation panics. Caches
// freeze tables so Get can return shared references safely.
func (t *Table) Freeze() *Table {
	t.frozen = true
	return t
}

func (t *Table) mutable() {
	if t.frozen {
		panic("table: mutation of frozen table")
	}
}

// grow reserves capacity for m additional rows across all columns.
func (t *Table) grow(m int) {
	for j := range t.Schema.Cols {
		c := &t.cols[j]
		if t.Schema.Cols[j].Type == DNumber {
			c.nums = growFloats(c.nums, m)
			continue
		}
		c.strs = growStrings(c.strs, m)
		c.nums = growFloats(c.nums, m)
		c.valid = growBools(c.valid, m)
	}
}

// growCap picks a new capacity for a column that must hold m more
// elements: doubled so repeated single-row appends stay amortized O(1).
func growCap(n, c, m int) int {
	want := n + m
	if c*2 > want {
		want = c * 2
	}
	if want < 16 {
		want = 16
	}
	return want
}

func growFloats(s []float64, m int) []float64 {
	if cap(s)-len(s) >= m {
		return s
	}
	out := make([]float64, len(s), growCap(len(s), cap(s), m))
	copy(out, s)
	return out
}

func growStrings(s []string, m int) []string {
	if cap(s)-len(s) >= m {
		return s
	}
	out := make([]string, len(s), growCap(len(s), cap(s), m))
	copy(out, s)
	return out
}

func growBools(s []bool, m int) []bool {
	if cap(s)-len(s) >= m {
		return s
	}
	out := make([]bool, len(s), growCap(len(s), cap(s), m))
	copy(out, s)
	return out
}

// Append adds rows to the table, coercing every cell to its column's
// declared type once, at ingest. Rows must match the schema width
// (callers that ingest untrusted output must Conform rows first).
func (t *Table) Append(rows ...Row) {
	t.mutable()
	if len(rows) == 0 {
		return
	}
	t.grow(len(rows))
	for _, r := range rows {
		if len(r) != len(t.Schema.Cols) {
			panic(fmt.Sprintf("table: row width %d != schema width %d", len(r), len(t.Schema.Cols)))
		}
		for j := range t.Schema.Cols {
			t.appendCell(j, r[j])
		}
	}
	t.n += len(rows)
}

// appendCell ingests one cell into column j, coercing to the declared
// type.
func (t *Table) appendCell(j int, v Value) {
	c := &t.cols[j]
	if t.Schema.Cols[j].Type == DNumber {
		c.nums = append(c.nums, v.Num())
		return
	}
	s := v.Str()
	f, ok := parseNum(s)
	c.strs = append(c.strs, s)
	c.nums = append(c.nums, f)
	c.valid = append(c.valid, ok)
}

// Grow reserves capacity for n more rows in every column, so appending
// that many allocates nothing: a caller that knows the final size (the
// engine materialising cached blocks) builds the table once, with no
// doubling and no second copy.
func (t *Table) Grow(n int) {
	t.mutable()
	t.grow(n)
}

// AppendBlock appends src's rows column-wise, then fills t's trailing
// columns (beyond src's width) with the given constants, one per extra
// column. Schemas must have identical column types up to src's width
// (names may differ — callers align positionally). This is the
// engine's stamping path: a cached chunk block in the base schema lands
// in the full execution schema without any row materialization or
// re-parsing, and the shared (possibly frozen) src is never touched.
func (t *Table) AppendBlock(src *Table, consts ...Value) {
	t.mutable()
	if len(src.Schema.Cols)+len(consts) != len(t.Schema.Cols) {
		panic(fmt.Sprintf("table: block width %d+%d != schema width %d",
			len(src.Schema.Cols), len(consts), len(t.Schema.Cols)))
	}
	m := src.n
	if m == 0 && len(consts) == 0 {
		return
	}
	t.grow(m)
	for j := range src.Schema.Cols {
		if src.Schema.Cols[j].Type != t.Schema.Cols[j].Type {
			panic(fmt.Sprintf("table: column %d type mismatch (%v vs %v)",
				j, src.Schema.Cols[j].Type, t.Schema.Cols[j].Type))
		}
		dst, s := &t.cols[j], &src.cols[j]
		dst.nums = append(dst.nums, s.nums...)
		if t.Schema.Cols[j].Type == DString {
			dst.strs = append(dst.strs, s.strs...)
			dst.valid = append(dst.valid, s.valid...)
		}
	}
	for k, cv := range consts {
		j := len(src.Schema.Cols) + k
		c := &t.cols[j]
		if t.Schema.Cols[j].Type == DNumber {
			f := cv.Num()
			for i := 0; i < m; i++ {
				c.nums = append(c.nums, f)
			}
			continue
		}
		s := cv.Str()
		f, ok := parseNum(s)
		for i := 0; i < m; i++ {
			c.strs = append(c.strs, s)
			c.nums = append(c.nums, f)
			c.valid = append(c.valid, ok)
		}
	}
	t.n += m
}

// At returns the cell at row i, column j.
func (t *Table) At(i, j int) Value {
	if t.Schema.Cols[j].Type == DNumber {
		return N(t.cols[j].nums[i])
	}
	return S(t.cols[j].strs[i])
}

// Row materializes row i.
func (t *Table) Row(i int) Row {
	r := make(Row, len(t.Schema.Cols))
	for j := range t.Schema.Cols {
		r[j] = t.At(i, j)
	}
	return r
}

// Rows materializes every row. Intended for tests, debugging and
// row-oriented consumers; the relational operators work on columns.
func (t *Table) Rows() []Row {
	out := make([]Row, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.Row(i)
	}
	return out
}

// Nums returns the numeric view of column j: the stored values for a
// NUMBER column, or the parse-once coercion of a STRING column. The
// slice is shared with the table and must not be mutated.
func (t *Table) Nums(j int) []float64 { return t.cols[j].nums }

// Strs returns the string storage of STRING column j (nil for a NUMBER
// column). Shared; must not be mutated.
func (t *Table) Strs(j int) []string { return t.cols[j].strs }

// Valid reports, for STRING column j, which cells parsed as numbers
// (nil for a NUMBER column). Shared; must not be mutated.
func (t *Table) Valid(j int) []bool { return t.cols[j].valid }

// Gather returns a new table holding the rows selected by sel, in sel
// order. Output columns are preallocated to len(sel).
func (t *Table) Gather(sel []int) *Table {
	out := New(t.Schema)
	out.n = len(sel)
	for j := range t.Schema.Cols {
		src, dst := &t.cols[j], &out.cols[j]
		dst.nums = make([]float64, len(sel))
		for k, i := range sel {
			dst.nums[k] = src.nums[i]
		}
		if t.Schema.Cols[j].Type == DString {
			dst.strs = make([]string, len(sel))
			dst.valid = make([]bool, len(sel))
			for k, i := range sel {
				dst.strs[k] = src.strs[i]
				dst.valid[k] = src.valid[i]
			}
		}
	}
	return out
}

// Col returns the values of the named column, or an error if absent.
func (t *Table) Col(name string) ([]Value, error) {
	j := t.Schema.Index(name)
	if j < 0 {
		return nil, fmt.Errorf("table: no column %q", name)
	}
	out := make([]Value, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.At(i, j)
	}
	return out, nil
}

// Clone returns a deep, mutable copy of the table.
func (t *Table) Clone() *Table {
	out := New(t.Schema)
	out.n = t.n
	for j := range t.cols {
		out.cols[j].nums = append([]float64(nil), t.cols[j].nums...)
		if t.Schema.Cols[j].Type == DString {
			out.cols[j].strs = append([]string(nil), t.cols[j].strs...)
			out.cols[j].valid = append([]bool(nil), t.cols[j].valid...)
		}
	}
	return out
}

// SortBy sorts rows by the named column ascending (numeric comparison
// for NUMBER columns, lexicographic for STRING). Used by deterministic
// tests and output printers; relational semantics never depend on order.
func (t *Table) SortBy(name string) error {
	t.mutable()
	j := t.Schema.Index(name)
	if j < 0 {
		return fmt.Errorf("table: no column %q", name)
	}
	perm := make([]int, t.n)
	for i := range perm {
		perm[i] = i
	}
	if t.Schema.Cols[j].Type == DNumber {
		nums := t.cols[j].nums
		sort.SliceStable(perm, func(a, b int) bool { return nums[perm[a]] < nums[perm[b]] })
	} else {
		strs := t.cols[j].strs
		sort.SliceStable(perm, func(a, b int) bool { return strs[perm[a]] < strs[perm[b]] })
	}
	sorted := t.Gather(perm)
	t.cols = sorted.cols
	return nil
}

// MemBytes approximates the table's resident size: column storage plus
// string content. Used for cache accounting.
func (t *Table) MemBytes() int64 {
	var b int64
	for j := range t.cols {
		c := &t.cols[j]
		b += int64(len(c.nums)) * 8
		b += int64(len(c.valid))
		b += int64(len(c.strs)) * 16
		for _, s := range c.strs {
			b += int64(len(s))
		}
	}
	return b
}

// String renders a compact textual form for debugging.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Schema.Names(), "|"))
	b.WriteString("\n")
	for i := 0; i < t.n; i++ {
		for j := range t.Schema.Cols {
			if j > 0 {
				b.WriteString("|")
			}
			if t.Schema.Cols[j].Type == DNumber {
				b.WriteString(strconv.FormatFloat(t.cols[j].nums[i], 'g', -1, 64))
			} else {
				b.WriteString(t.cols[j].strs[i])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
