package table

import "fmt"

// Builder assembles a table column-wise with a known row count, letting
// the relational operators write whole columns (or share slices they
// already hold) instead of appending row by row. Shared slices are
// capacity-clipped so a later Append on the built table can never write
// into the source's backing array.
type Builder struct {
	t *Table
}

// NewBuilder starts a table with schema s and exactly n rows.
func NewBuilder(s Schema, n int) *Builder {
	t := New(s)
	t.n = n
	return &Builder{t: t}
}

// mark checks column j before it is set. Set means it has numeric
// storage (in a table of no rows an unset column is just the empty one).
func (b *Builder) mark(j int, typ DType) {
	if b.t == nil {
		panic("table: Builder used after Build")
	}
	if b.t.Schema.Cols[j].Type != typ {
		panic(fmt.Sprintf("table: builder column %d is %v", j, b.t.Schema.Cols[j].Type))
	}
	if b.t.cols[j].nums != nil {
		panic(fmt.Sprintf("table: builder column %d set twice", j))
	}
}

// SetNums installs vals as NUMBER column j, taking ownership.
func (b *Builder) SetNums(j int, vals []float64) {
	b.mark(j, DNumber)
	if len(vals) != b.t.n {
		panic(fmt.Sprintf("table: builder column %d has %d rows, want %d", j, len(vals), b.t.n))
	}
	b.t.cols[j].nums = vals[:len(vals):len(vals)]
}

// SetStrs installs vals as STRING column j, computing the parse-once
// numeric view.
func (b *Builder) SetStrs(j int, vals []string) {
	nums := make([]float64, len(vals))
	valid := make([]bool, len(vals))
	for i, s := range vals {
		nums[i], valid[i] = parseNum(s)
	}
	b.SetStrsView(j, vals, nums, valid)
}

// SetStrsView installs STRING column j with its precomputed numeric
// view, taking ownership of all three slices (which may be shared with
// another table — they are capacity-clipped here).
func (b *Builder) SetStrsView(j int, strs []string, nums []float64, valid []bool) {
	b.mark(j, DString)
	if len(strs) != b.t.n || len(nums) != b.t.n || len(valid) != b.t.n {
		panic(fmt.Sprintf("table: builder column %d has %d/%d/%d rows, want %d",
			j, len(strs), len(nums), len(valid), b.t.n))
	}
	b.t.cols[j].strs = strs[:len(strs):len(strs)]
	b.t.cols[j].nums = nums[:len(nums):len(nums)]
	b.t.cols[j].valid = valid[:len(valid):len(valid)]
}

// SetConstNum fills NUMBER column j with a constant.
func (b *Builder) SetConstNum(j int, f float64) {
	vals := make([]float64, b.t.n)
	for i := range vals {
		vals[i] = f
	}
	b.SetNums(j, vals)
}

// SetConstStr fills STRING column j with a constant.
func (b *Builder) SetConstStr(j int, s string) {
	f, ok := parseNum(s)
	strs := make([]string, b.t.n)
	nums := make([]float64, b.t.n)
	valid := make([]bool, b.t.n)
	for i := range strs {
		strs[i] = s
		nums[i] = f
		valid[i] = ok
	}
	b.SetStrsView(j, strs, nums, valid)
}

// Build finalizes the table. Every column must have been set.
func (b *Builder) Build() *Table {
	for j := range b.t.cols {
		if b.t.n > 0 && b.t.cols[j].nums == nil {
			panic(fmt.Sprintf("table: builder column %d (%s) never set", j, b.t.Schema.Cols[j].Name))
		}
	}
	t := b.t
	b.t = nil
	return t
}
