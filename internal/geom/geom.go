// Package geom provides the planar geometry used by the video, CV and
// masking substrates: points, axis-aligned rectangles, IoU, and the
// fixed pixel grids (10×10 px boxes, Appendix F) that masks and
// persistence heatmaps are defined over.
package geom

import (
	"fmt"
	"iter"
	"math"
)

// Point is a position in frame coordinates (pixels, origin top-left).
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rect is an axis-aligned rectangle [X0,X1)×[Y0,Y1) in frame
// coordinates. A rectangle with X1<=X0 or Y1<=Y0 is empty.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// RectAround returns the w×h rectangle centered at c.
func RectAround(c Point, w, h float64) Rect {
	return Rect{c.X - w/2, c.Y - h/2, c.X + w/2, c.Y + h/2}
}

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// W returns the width (0 if empty).
func (r Rect) W() float64 {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the height (0 if empty).
func (r Rect) H() float64 {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns the area of the rectangle (0 if empty).
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the centroid of the rectangle.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Contains reports whether p lies inside the rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// Intersect returns the overlap of two rectangles (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: math.Max(r.X0, o.X0),
		Y0: math.Max(r.Y0, o.Y0),
		X1: math.Min(r.X1, o.X1),
		Y1: math.Min(r.Y1, o.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle covering both.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{
		X0: math.Min(r.X0, o.X0),
		Y0: math.Min(r.Y0, o.Y0),
		X1: math.Max(r.X1, o.X1),
		Y1: math.Max(r.Y1, o.Y1),
	}
}

// IoU returns the intersection-over-union of two rectangles, the
// association metric used by the SORT-style tracker.
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter <= 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// CoverFraction returns the fraction of r's area covered by o
// (0 when r is empty). Masking uses this to decide whether an object
// remains visible once mask pixels are blacked out.
func (r Rect) CoverFraction(o Rect) float64 {
	a := r.Area()
	if a <= 0 {
		return 0
	}
	return r.Intersect(o).Area() / a
}

// Translate returns r shifted by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.X0 + d.X, r.Y0 + d.Y, r.X1 + d.X, r.Y1 + d.Y}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("(%.1f,%.1f)-(%.1f,%.1f)", r.X0, r.Y0, r.X1, r.Y1)
}

// Cell identifies one box of a Grid by column and row.
type Cell struct {
	Col, Row int
}

// Grid divides a W×H pixel frame into fixed-size boxes (Appendix F uses
// 10×10 px boxes). Cells on the right/bottom edge may be smaller when
// the frame size is not a multiple of the box size.
type Grid struct {
	FrameW, FrameH float64 // frame dimensions in pixels
	BoxW, BoxH     float64 // box dimensions in pixels
}

// NewGrid returns a grid of boxW×boxH boxes over a frameW×frameH frame.
func NewGrid(frameW, frameH, boxW, boxH float64) Grid {
	return Grid{FrameW: frameW, FrameH: frameH, BoxW: boxW, BoxH: boxH}
}

// Cols returns the number of columns in the grid.
func (g Grid) Cols() int {
	if g.BoxW <= 0 {
		return 0
	}
	return int(math.Ceil(g.FrameW / g.BoxW))
}

// Rows returns the number of rows in the grid.
func (g Grid) Rows() int {
	if g.BoxH <= 0 {
		return 0
	}
	return int(math.Ceil(g.FrameH / g.BoxH))
}

// NumCells returns the total number of cells.
func (g Grid) NumCells() int { return g.Cols() * g.Rows() }

// Index returns the linear index of c (row-major), or -1 if out of range.
func (g Grid) Index(c Cell) int {
	cols, rows := g.Cols(), g.Rows()
	if c.Col < 0 || c.Col >= cols || c.Row < 0 || c.Row >= rows {
		return -1
	}
	return c.Row*cols + c.Col
}

// CellAt returns the cell of linear index i.
func (g Grid) CellAt(i int) Cell {
	cols := g.Cols()
	if cols == 0 {
		return Cell{}
	}
	return Cell{Col: i % cols, Row: i / cols}
}

// CellRect returns the pixel rectangle of cell c, clipped to the frame.
func (g Grid) CellRect(c Cell) Rect {
	r := Rect{
		X0: float64(c.Col) * g.BoxW,
		Y0: float64(c.Row) * g.BoxH,
		X1: float64(c.Col+1) * g.BoxW,
		Y1: float64(c.Row+1) * g.BoxH,
	}
	return r.Intersect(Rect{0, 0, g.FrameW, g.FrameH})
}

// Cells yields the cells intersected by r (clipped to the frame) in
// row-major order, allocating nothing.
func (g Grid) Cells(r Rect) iter.Seq[Cell] {
	return func(yield func(Cell) bool) {
		r := r.Intersect(Rect{0, 0, g.FrameW, g.FrameH})
		if r.Empty() || g.BoxW <= 0 || g.BoxH <= 0 {
			return
		}
		c0 := int(r.X0 / g.BoxW)
		r0 := int(r.Y0 / g.BoxH)
		c1 := min(int(math.Ceil(r.X1/g.BoxW))-1, g.Cols()-1)
		r1 := min(int(math.Ceil(r.Y1/g.BoxH))-1, g.Rows()-1)
		for row := r0; row <= r1; row++ {
			for col := c0; col <= c1; col++ {
				if !yield(Cell{Col: col, Row: row}) {
					return
				}
			}
		}
	}
}

// CellOf returns the cell containing point p, or ok=false if p is
// outside the frame.
func (g Grid) CellOf(p Point) (Cell, bool) {
	if p.X < 0 || p.Y < 0 || p.X >= g.FrameW || p.Y >= g.FrameH || g.BoxW <= 0 || g.BoxH <= 0 {
		return Cell{}, false
	}
	return Cell{Col: int(p.X / g.BoxW), Row: int(p.Y / g.BoxH)}, true
}
