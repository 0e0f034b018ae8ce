package table

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	s := S("hello")
	if s.Type() != DString || s.Str() != "hello" {
		t.Errorf("string value: %+v", s)
	}
	if s.Num() != 0 {
		t.Errorf("non-numeric string Num=%v", s.Num())
	}
	n := N(3.5)
	if n.Type() != DNumber || n.Num() != 3.5 || n.Str() != "3.5" {
		t.Errorf("number value: %+v", n)
	}
	// Numeric strings parse.
	if S("42.5").Num() != 42.5 || S(" 7 ").Num() != 7 {
		t.Errorf("numeric string coercion failed")
	}
}

func TestValueEqualAndKey(t *testing.T) {
	if !S("a").Equal(S("a")) || S("a").Equal(S("b")) {
		t.Errorf("string equality wrong")
	}
	if !N(1).Equal(N(1)) || N(1).Equal(N(2)) {
		t.Errorf("number equality wrong")
	}
	if S("1").Equal(N(1)) {
		t.Errorf("cross-type equality must be false")
	}
	if S("1").Key() == N(1).Key() {
		t.Errorf("keys must be type-tagged")
	}
}

func TestValueCoerce(t *testing.T) {
	if v := S("42").Coerce(DNumber); v.Type() != DNumber || v.Num() != 42 {
		t.Errorf("S->N coerce: %+v", v)
	}
	if v := N(42).Coerce(DString); v.Type() != DString || v.Str() != "42" {
		t.Errorf("N->S coerce: %+v", v)
	}
	if v := N(1).Coerce(DNumber); v.Num() != 1 {
		t.Errorf("identity coerce: %+v", v)
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "", Type: DNumber}); err == nil {
		t.Errorf("empty name accepted")
	}
	if _, err := NewSchema(Column{Name: "chunk", Type: DNumber}); err == nil {
		t.Errorf("reserved name accepted")
	}
	if _, err := NewSchema(Column{Name: "region", Type: DString}); err == nil {
		t.Errorf("reserved name accepted")
	}
	if _, err := NewSchema(
		Column{Name: "a", Type: DNumber},
		Column{Name: "a", Type: DString},
	); err == nil {
		t.Errorf("duplicate accepted")
	}
	s, err := NewSchema(Column{Name: "a", Type: DNumber, Default: N(5)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Index("a") != 0 || s.Index("b") != -1 || !s.Has("a") {
		t.Errorf("index/has wrong")
	}
}

func TestDefaultRow(t *testing.T) {
	s := MustSchema(
		Column{Name: "n", Type: DNumber, Default: N(-1)},
		Column{Name: "s", Type: DString, Default: S("x")},
		Column{Name: "coerced", Type: DNumber, Default: S("7")},
	)
	r := s.DefaultRow()
	if r[0].Num() != -1 || r[1].Str() != "x" {
		t.Errorf("defaults: %v", r)
	}
	if r[2].Type() != DNumber || r[2].Num() != 7 {
		t.Errorf("default not coerced to column type: %v", r[2])
	}
}

func TestWithImplicit(t *testing.T) {
	s := MustSchema(Column{Name: "n", Type: DNumber})
	si := s.WithImplicit(false)
	if !si.Has(ChunkColumn) || si.Has(RegionColumn) {
		t.Errorf("implicit columns: %v", si.Names())
	}
	sir := s.WithImplicit(true)
	if !sir.Has(RegionColumn) {
		t.Errorf("region column missing")
	}
	// Original schema untouched.
	if s.Has(ChunkColumn) {
		t.Errorf("WithImplicit mutated the original")
	}
}

func TestConform(t *testing.T) {
	s := MustSchema(
		Column{Name: "n", Type: DNumber, Default: N(0)},
		Column{Name: "s", Type: DString, Default: S("d")},
	)
	// Extra column dropped, types coerced.
	r := s.Conform(Row{S("9"), N(3), S("extra")})
	if len(r) != 2 || r[0].Num() != 9 || r[1].Str() != "3" {
		t.Errorf("conform: %v", r)
	}
	// Short row filled with defaults.
	r2 := s.Conform(Row{N(1)})
	if r2[1].Str() != "d" {
		t.Errorf("short conform: %v", r2)
	}
	// Empty row is all defaults.
	r3 := s.Conform(nil)
	if r3[0].Num() != 0 || r3[1].Str() != "d" {
		t.Errorf("empty conform: %v", r3)
	}
}

func TestTableColAndSort(t *testing.T) {
	s := MustSchema(
		Column{Name: "n", Type: DNumber},
		Column{Name: "s", Type: DString},
	)
	tb := New(s)
	tb.Append(Row{N(3), S("c")}, Row{N(1), S("a")}, Row{N(2), S("b")})
	if tb.Len() != 3 {
		t.Fatalf("len=%d", tb.Len())
	}
	col, err := tb.Col("n")
	if err != nil || len(col) != 3 {
		t.Fatalf("Col: %v %v", col, err)
	}
	if _, err := tb.Col("zzz"); err == nil {
		t.Errorf("missing column accepted")
	}
	if err := tb.SortBy("n"); err != nil {
		t.Fatal(err)
	}
	if tb.At(0, 0).Num() != 1 || tb.At(2, 0).Num() != 3 {
		t.Errorf("numeric sort wrong: %v", tb.Rows())
	}
	if err := tb.SortBy("s"); err != nil {
		t.Fatal(err)
	}
	if tb.At(0, 1).Str() != "a" {
		t.Errorf("string sort wrong")
	}
}

func TestIngestCoercion(t *testing.T) {
	s := MustSchema(
		Column{Name: "n", Type: DNumber},
		Column{Name: "s", Type: DString},
	)
	tb := New(s)
	// Cells are coerced to the declared column type once, at ingest.
	tb.Append(Row{S("42.5"), N(7)}, Row{S("junk"), S("x")})
	if v := tb.At(0, 0); v.Type() != DNumber || v.Num() != 42.5 {
		t.Errorf("string->number ingest: %v", v)
	}
	if v := tb.At(1, 0); v.Num() != 0 {
		t.Errorf("unparseable string must coerce to 0: %v", v)
	}
	if v := tb.At(0, 1); v.Type() != DString || v.Str() != "7" {
		t.Errorf("number->string ingest: %v", v)
	}
	// The numeric view of a STRING column is the parse-once coercion.
	tb2 := New(MustSchema(Column{Name: "s", Type: DString}))
	tb2.Append(Row{S(" 7 ")}, Row{S("bad")}, Row{S("2.5")})
	nums, valid := tb2.Nums(0), tb2.Valid(0)
	if nums[0] != 7 || nums[1] != 0 || nums[2] != 2.5 {
		t.Errorf("numeric view: %v", nums)
	}
	if !valid[0] || valid[1] || !valid[2] {
		t.Errorf("validity view: %v", valid)
	}
}

func TestRowsMaterialization(t *testing.T) {
	s := MustSchema(
		Column{Name: "n", Type: DNumber},
		Column{Name: "s", Type: DString},
	)
	tb := FromRows(s, []Row{{N(1), S("a")}, {N(2), S("b")}})
	rows := tb.Rows()
	if len(rows) != 2 || !rows[1][0].Equal(N(2)) || !rows[1][1].Equal(S("b")) {
		t.Errorf("rows: %v", rows)
	}
	if r := tb.Row(0); !r[0].Equal(N(1)) || !r[1].Equal(S("a")) {
		t.Errorf("row 0: %v", r)
	}
}

func TestFreezePanicsOnMutation(t *testing.T) {
	tb := FromRows(MustSchema(Column{Name: "n", Type: DNumber}), []Row{{N(1)}})
	tb.Freeze()
	if !tb.Frozen() {
		t.Fatal("not frozen")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Append on frozen table must panic")
		}
	}()
	tb.Append(Row{N(2)})
}

func TestGather(t *testing.T) {
	s := MustSchema(
		Column{Name: "n", Type: DNumber},
		Column{Name: "s", Type: DString},
	)
	tb := FromRows(s, []Row{{N(1), S("a")}, {N(2), S("b")}, {N(3), S("c")}})
	g := tb.Gather([]int{2, 0})
	if g.Len() != 2 || g.At(0, 0).Num() != 3 || g.At(1, 1).Str() != "a" {
		t.Errorf("gather: %v", g.String())
	}
	if e := tb.Gather(nil); e.Len() != 0 {
		t.Errorf("empty gather: %d", e.Len())
	}
}

func TestAppendBlock(t *testing.T) {
	base := MustSchema(Column{Name: "n", Type: DNumber}, Column{Name: "s", Type: DString})
	full := base.WithImplicitCols(true, false)
	blk := FromRows(base, []Row{{N(1), S("a")}, {N(2), S("b")}}).Freeze()
	out := New(full)
	out.AppendBlock(blk, N(100), S("r0"))
	out.AppendBlock(blk, N(200), S("r1"))
	if out.Len() != 4 {
		t.Fatalf("len=%d", out.Len())
	}
	if out.At(1, 2).Num() != 100 || out.At(3, 2).Num() != 200 {
		t.Errorf("chunk consts wrong: %s", out.String())
	}
	if out.At(0, 3).Str() != "r0" || out.At(2, 3).Str() != "r1" {
		t.Errorf("region consts wrong: %s", out.String())
	}
	if out.At(2, 0).Num() != 1 || out.At(3, 1).Str() != "b" {
		t.Errorf("block copy wrong: %s", out.String())
	}
}

func TestKeyHashMatchesKeyEquality(t *testing.T) {
	vals := []Value{
		N(0), N(math.Copysign(0, -1)), N(1), N(-1), N(math.NaN()),
		N(math.Inf(1)), S("0"), S(""), S("a"), S("NaN"), N(42), S("42"),
	}
	for _, a := range vals {
		for _, b := range vals {
			wantEq := a.Key() == b.Key()
			if got := a.KeyEqual(b); got != wantEq {
				t.Errorf("KeyEqual(%v,%v)=%v want %v", a, b, got, wantEq)
			}
			if wantEq && a.KeyHash() != b.KeyHash() {
				t.Errorf("key-equal values %v,%v hash differently", a, b)
			}
		}
	}
	// NaNs are key-equal ("NaN"=="NaN"); +0 and -0 are not ("0"!="-0").
	if !N(math.NaN()).KeyEqual(N(math.NaN())) {
		t.Errorf("NaN keys must be equal")
	}
	if N(0).KeyEqual(N(math.Copysign(0, -1))) {
		t.Errorf("+0 and -0 keys must differ")
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	s := MustSchema(
		Column{Name: "n", Type: DNumber, Default: N(-1)},
		Column{Name: "s", Type: DString, Default: S("d")},
	)
	tb := FromRows(s, []Row{
		{N(1.5), S("a|b")},
		{N(math.Inf(-1)), S("")},
		{N(0), S(" 7 ")},
	})
	got, err := DecodeBinary(tb.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != tb.String() {
		t.Errorf("round trip:\n%s\nvs\n%s", got.String(), tb.String())
	}
	// Parse-once view survives the trip.
	if got.Nums(1)[2] != 7 || !got.Valid(1)[2] {
		t.Errorf("numeric view not rebuilt: %v %v", got.Nums(1), got.Valid(1))
	}
	if got.Schema.Cols[1].Default.Str() != "d" {
		t.Errorf("default lost: %v", got.Schema.Cols[1].Default)
	}
	// Empty table round-trips too.
	empty := New(s)
	if got2, err := DecodeBinary(empty.EncodeBinary()); err != nil || got2.Len() != 0 {
		t.Errorf("empty round trip: %v %v", got2, err)
	}
}

func TestBinaryCodecRejectsMalformed(t *testing.T) {
	tb := FromRows(MustSchema(Column{Name: "n", Type: DNumber}), []Row{{N(1)}})
	enc := tb.EncodeBinary()
	for _, raw := range [][]byte{
		nil,
		{},
		{99},                                   // bad version
		enc[:len(enc)-3],                       // truncated payload
		append(append([]byte{}, enc...), 0xff), // trailing bytes
	} {
		if _, err := DecodeBinary(raw); err == nil {
			t.Errorf("malformed input %v accepted", raw)
		}
	}
	// Absurd row count bounded by payload length, not trusted.
	huge := append([]byte{codecVersion}, 1, 0, byte(DNumber), 1, 0, 'x', byte(DNumber), 0, 0, 0, 0, 0, 0, 0, 0)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff) // nrows = 4B
	if _, err := DecodeBinary(huge); err == nil {
		t.Errorf("oversized row count accepted")
	}
}

func TestConformProperties(t *testing.T) {
	s := MustSchema(
		Column{Name: "a", Type: DNumber, Default: N(0)},
		Column{Name: "b", Type: DString, Default: S("")},
	)
	// Conform always yields exactly the schema arity with declared
	// types, whatever garbage comes in.
	f := func(nums []float64, strs []string) bool {
		var raw Row
		for _, n := range nums {
			raw = append(raw, N(n))
		}
		for _, x := range strs {
			raw = append(raw, S(x))
		}
		out := s.Conform(raw)
		return len(out) == 2 && out[0].Type() == DNumber && out[1].Type() == DString
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mixedRows builds n rows for a NUMBER,STRING,NUMBER,STRING schema.
func mixedSchemaRows(n int) (Schema, []Row) {
	s := MustSchema(
		Column{Name: "count", Type: DNumber, Default: N(0)},
		Column{Name: "class", Type: DString, Default: S("")},
		Column{Name: "conf", Type: DNumber, Default: N(0)},
		Column{Name: "tag", Type: DString, Default: S("-")},
	)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{N(float64(i)), S("person"), N(0.5), S("3.25")}
	}
	return s, rows
}

// TestFromRowsArenaMatchesAppend pins the arena builder to the
// incremental path: identical contents, numeric views, and safe
// post-build mutation (a later Append must reallocate the touched
// column, never write into a neighbor's arena region).
func TestFromRowsArenaMatchesAppend(t *testing.T) {
	s, rows := mixedSchemaRows(37)
	arena := FromRows(s, rows)
	incr := New(s)
	incr.Append(rows...)
	if arena.Len() != incr.Len() {
		t.Fatalf("len: arena %d, incremental %d", arena.Len(), incr.Len())
	}
	for i := 0; i < arena.Len(); i++ {
		for j := range s.Cols {
			if !arena.At(i, j).Equal(incr.At(i, j)) {
				t.Fatalf("cell (%d,%d): arena %v, incremental %v", i, j, arena.At(i, j), incr.At(i, j))
			}
		}
	}
	// Parse-once numeric view of the STRING "tag" column.
	if got := arena.Nums(3)[0]; got != 3.25 {
		t.Errorf("tag numeric view = %v, want 3.25", got)
	}
	if arena.Valid(1)[0] {
		// "person" does not parse as a number; valid must be false.
		t.Errorf("class %q reported as numeric", "person")
	}
	if arena.Nums(1)[0] != 0 {
		t.Errorf("class numeric view = %v, want 0", arena.Nums(1)[0])
	}

	// Appending one more row grows column slices whose cap is clipped
	// to the arena region: every column must reallocate rather than
	// overrun into the next column's region.
	arena.Append(Row{N(99), S("car"), N(1), S("x")})
	if arena.Len() != 38 || arena.At(37, 0).Num() != 99 {
		t.Fatalf("post-arena Append broken: %v", arena.At(37, 0))
	}
	// Column 0's original region must be untouched by column growth.
	for i := 0; i < 37; i++ {
		if arena.At(i, 0).Num() != float64(i) {
			t.Fatalf("arena row %d corrupted after Append: %v", i, arena.At(i, 0))
		}
	}
}

func TestFromRowsEmpty(t *testing.T) {
	s, _ := mixedSchemaRows(0)
	tb := FromRows(s, nil)
	if tb.Len() != 0 {
		t.Fatalf("empty FromRows has %d rows", tb.Len())
	}
	tb.Append(Row{N(1), S("a"), N(2), S("b")}) // still usable
	if tb.Len() != 1 {
		t.Fatalf("append after empty FromRows: %d rows", tb.Len())
	}
}

// raggedRows are untrusted executable output FromRows must conform:
// short rows (defaults fill the rest), long rows (extra cells dropped)
// and cells of the wrong type, over a schema with a mistyped default.
func raggedRows() (Schema, []Row) {
	s := MustSchema(
		Column{Name: "plate", Type: DString, Default: S("none")},
		Column{Name: "speed", Type: DNumber, Default: S("2.5")},
		Column{Name: "lane", Type: DString, Default: N(3)},
	)
	return s, []Row{
		{},
		{S("a")},
		{N(7), S("12.5"), N(math.Copysign(0, -1))},
		{S("b"), S("junk"), N(math.NaN()), S("extra"), N(9)},
		{N(math.Inf(1)), N(-1)},
		{S(" 4 "), S(" 4 "), S("")},
	}
}

// FromRows conforms at ingest: over ragged, mistyped rows it builds,
// byte for byte, the table it builds over the same rows Conform'ed.
func TestFromRowsConformsRaggedRows(t *testing.T) {
	s, rows := raggedRows()
	conformed := make([]Row, len(rows))
	for i, r := range rows {
		conformed[i] = s.Conform(r)
	}
	for i := 0; i <= len(rows); i++ {
		got, want := FromRows(s, rows[:i]).EncodeBinary(), FromRows(s, conformed[:i]).EncodeBinary()
		if string(got) != string(want) {
			t.Fatalf("first %d rows: FromRows over raw rows = %x, over conformed rows %x", i, got, want)
		}
	}
}

// A Reset table refilled by AppendBlock equals a fresh one, whatever
// schema it held before, and holds no string of its earlier contents.
func TestResetRefillsLikeNew(t *testing.T) {
	base, rows := mixedSchemaRows(5)
	blk := FromRows(base, rows).Freeze()
	wide := base.WithImplicitCols(true, true)
	var scratch Table
	for _, full := range []Schema{wide, base.WithImplicit(false), wide, base.WithImplicit(true)} {
		consts := []Value{N(1616000000), S("north"), S("camB")}[:len(full.Cols)-len(base.Cols)]
		want := New(full)
		want.AppendBlock(blk, consts...)
		scratch.Reset(full)
		scratch.AppendBlock(blk, consts...)
		if got := scratch.EncodeBinary(); string(got) != string(want.EncodeBinary()) {
			t.Fatalf("%d columns: refilled scratch differs from a fresh table", len(full.Cols))
		}
	}
	scratch.Reset(Schema{})
	for _, c := range scratch.cols[:cap(scratch.cols)] {
		if slices.ContainsFunc(c.strs[:cap(c.strs)], func(s string) bool { return s != "" }) {
			t.Fatal("a reset table still holds a string")
		}
	}
}

// BenchmarkFromRows_Arena measures the bulk builder used on the
// PROCESS ingest path; its allocation count is enforced by the CI
// bench contract (3 arena blocks + table headers, independent of row
// count).
func BenchmarkFromRows_Arena(b *testing.B) {
	s, rows := mixedSchemaRows(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTable = FromRows(s, rows)
	}
}

// BenchmarkFromRows_RowAppend is the pre-arena baseline: an empty
// table grown by incremental Append.
func BenchmarkFromRows_RowAppend(b *testing.B) {
	s, rows := mixedSchemaRows(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := New(s)
		t.Append(rows...)
		benchTable = t
	}
}

var benchTable *Table
