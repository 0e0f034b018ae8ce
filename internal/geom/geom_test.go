package geom

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{4, 6}
	if got := p.Add(q); got != (Point{5, 8}) {
		t.Errorf("Add=%v", got)
	}
	if got := q.Sub(p); got != (Point{3, 4}) {
		t.Errorf("Sub=%v", got)
	}
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist=%v", got)
	}
	if got := p.Lerp(q, 0.5); got != (Point{2.5, 4}) {
		t.Errorf("Lerp=%v", got)
	}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0)=%v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale=%v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 10, 20}
	if r.W() != 10 || r.H() != 20 || r.Area() != 200 {
		t.Fatalf("dims wrong: %v", r)
	}
	if r.Center() != (Point{5, 10}) {
		t.Errorf("Center=%v", r.Center())
	}
	if !r.Contains(Point{0, 0}) || r.Contains(Point{10, 0}) {
		t.Errorf("Contains is not half-open")
	}
	if !(Rect{5, 5, 5, 10}).Empty() {
		t.Errorf("zero-width rect should be empty")
	}
	ra := RectAround(Point{5, 5}, 4, 6)
	if ra != (Rect{3, 2, 7, 8}) {
		t.Errorf("RectAround=%v", ra)
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	if got := a.Intersect(b); got != (Rect{5, 5, 10, 10}) {
		t.Errorf("Intersect=%v", got)
	}
	if got := a.Intersect(Rect{20, 20, 30, 30}); !got.Empty() {
		t.Errorf("disjoint Intersect=%v", got)
	}
	if got := a.Union(b); got != (Rect{0, 0, 15, 15}) {
		t.Errorf("Union=%v", got)
	}
}

func TestIoU(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	if got := a.IoU(a); got != 1 {
		t.Errorf("self IoU=%v", got)
	}
	b := Rect{5, 0, 15, 10}
	// inter=50, union=150
	if got := a.IoU(b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("IoU=%v, want 1/3", got)
	}
	if got := a.IoU(Rect{20, 20, 30, 30}); got != 0 {
		t.Errorf("disjoint IoU=%v", got)
	}
}

func TestCoverFraction(t *testing.T) {
	obj := Rect{0, 0, 10, 10}
	mask := Rect{0, 0, 10, 5}
	if got := obj.CoverFraction(mask); got != 0.5 {
		t.Errorf("CoverFraction=%v", got)
	}
	if got := (Rect{}).CoverFraction(mask); got != 0 {
		t.Errorf("empty CoverFraction=%v", got)
	}
}

func TestGridShape(t *testing.T) {
	g := NewGrid(100, 50, 10, 10)
	if g.Cols() != 10 || g.Rows() != 5 || g.NumCells() != 50 {
		t.Fatalf("grid shape: %d x %d", g.Cols(), g.Rows())
	}
	// Non-divisible frame gets a partial edge cell.
	g2 := NewGrid(105, 52, 10, 10)
	if g2.Cols() != 11 || g2.Rows() != 6 {
		t.Fatalf("partial grid shape: %d x %d", g2.Cols(), g2.Rows())
	}
	edge := g2.CellRect(Cell{Col: 10, Row: 5})
	if edge.W() != 5 || edge.H() != 2 {
		t.Errorf("edge cell = %v", edge)
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := NewGrid(100, 50, 10, 10)
	for i := 0; i < g.NumCells(); i++ {
		c := g.CellAt(i)
		if got := g.Index(c); got != i {
			t.Fatalf("index round trip %d -> %v -> %d", i, c, got)
		}
	}
	if g.Index(Cell{Col: -1}) != -1 || g.Index(Cell{Col: 10, Row: 0}) != -1 {
		t.Errorf("out-of-range index should be -1")
	}
}

func TestCells(t *testing.T) {
	g := NewGrid(100, 100, 10, 10)
	// Spans cols 0..2, rows 0..1, walked row by row.
	want := []Cell{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	if cells := slices.Collect(g.Cells(Rect{5, 5, 25, 15})); !slices.Equal(cells, want) {
		t.Fatalf("Cells = %v, want %v", cells, want)
	}
	if cells := slices.Collect(g.Cells(Rect{-50, -50, -10, -10})); cells != nil {
		t.Errorf("out-of-frame rect gave cells %v", cells)
	}
	// A rect exactly on a cell boundary touches only one cell.
	if one := slices.Collect(g.Cells(Rect{10, 10, 20, 20})); len(one) != 1 || one[0] != (Cell{1, 1}) {
		t.Errorf("aligned rect cells=%v", one)
	}
	// Clipped to the frame; stopping early stops the walk.
	n := 0
	for c := range g.Cells(Rect{85, 95, 200, 200}) {
		if c != (Cell{8, 9}) {
			t.Fatalf("first clipped cell %v", c)
		}
		n++
		break
	}
	if n != 1 {
		t.Errorf("walk yielded %d cells before break", n)
	}
}

func TestCellOf(t *testing.T) {
	g := NewGrid(100, 100, 10, 10)
	c, ok := g.CellOf(Point{55, 99})
	if !ok || c != (Cell{5, 9}) {
		t.Errorf("CellOf=%v,%v", c, ok)
	}
	if _, ok := g.CellOf(Point{100, 0}); ok {
		t.Errorf("edge point should be outside")
	}
}

func TestIoUProperties(t *testing.T) {
	// IoU is symmetric and within [0,1].
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := Rect{float64(ax), float64(ay), float64(ax) + float64(aw), float64(ay) + float64(ah)}
		b := Rect{float64(bx), float64(by), float64(bx) + float64(bw), float64(by) + float64(bh)}
		x, y := a.IoU(b), b.IoU(a)
		return x == y && x >= 0 && x <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Intersection area never exceeds either operand's area.
	g := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := Rect{float64(ax), float64(ay), float64(ax) + float64(aw), float64(ay) + float64(ah)}
		b := Rect{float64(bx), float64(by), float64(bx) + float64(bw), float64(by) + float64(bh)}
		ia := a.Intersect(b).Area()
		return ia <= a.Area()+1e-9 && ia <= b.Area()+1e-9
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}
