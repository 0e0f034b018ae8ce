// Package mask implements Privid's spatial-masking optimization (§7.1,
// Appendix F): fixed grid-cell masks that remove long-lingering regions
// from the analyst's view, the persistence heatmaps used to find them
// (Fig. 3), the greedy mask-ordering of Algorithm 2, and the
// mask→policy map the video owner publishes (Appendix F.2).
package mask

import (
	"fmt"
	"math/bits"

	"privid/internal/geom"
)

// VisibleThreshold is the minimum unmasked fraction of an object's
// bounding box for the object to remain detectable. Masks black out
// pixels; an object mostly covered by black pixels is effectively
// removed from the video.
const VisibleThreshold = 0.4

// Mask is a set of masked grid cells over a frame. The zero-cell mask
// hides nothing.
type Mask struct {
	Grid geom.Grid
	bits []uint64
}

// New returns an empty mask over the given grid.
func New(g geom.Grid) *Mask {
	n := g.NumCells()
	return &Mask{Grid: g, bits: make([]uint64, (n+63)/64)}
}

// FromRects returns a mask covering every cell intersected by any of
// the given pixel rectangles.
func FromRects(g geom.Grid, rects ...geom.Rect) *Mask {
	m := New(g)
	for _, r := range rects {
		for c := range g.Cells(r) {
			m.Set(c)
		}
	}
	return m
}

// Invert returns the complement mask: every cell *not* covered by m.
// Queries like Q10–Q12 mask "everything except the traffic light".
func (m *Mask) Invert() *Mask {
	out := New(m.Grid)
	n := m.Grid.NumCells()
	for i := 0; i < n; i++ {
		if !m.getIndex(i) {
			out.setIndex(i)
		}
	}
	return out
}

func (m *Mask) setIndex(i int) {
	if i < 0 {
		return
	}
	m.bits[i/64] |= 1 << (i % 64)
}

func (m *Mask) getIndex(i int) bool {
	if i < 0 || i/64 >= len(m.bits) {
		return false
	}
	return m.bits[i/64]&(1<<(i%64)) != 0
}

// Set masks cell c.
func (m *Mask) Set(c geom.Cell) { m.setIndex(m.Grid.Index(c)) }

// Masked reports whether cell c is masked.
func (m *Mask) Masked(c geom.Cell) bool { return m.getIndex(m.Grid.Index(c)) }

// Count returns the number of masked cells.
func (m *Mask) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Fraction returns the fraction of grid cells masked (the x-axis of
// Fig. 11).
func (m *Mask) Fraction() float64 {
	total := m.Grid.NumCells()
	if total == 0 {
		return 0
	}
	return float64(m.Count()) / float64(total)
}

// CoveredFraction returns the fraction of box's area covered by masked
// cells.
func (m *Mask) CoveredFraction(box geom.Rect) float64 {
	a := box.Area()
	if a <= 0 {
		return 0
	}
	var covered float64
	for c := range m.Grid.Cells(box) {
		if m.Masked(c) {
			covered += m.Grid.CellRect(c).Intersect(box).Area()
		}
	}
	return covered / a
}

// Visible reports whether an object occupying box survives the mask.
// It implements video.Occluder.
func (m *Mask) Visible(box geom.Rect) bool {
	return 1-m.CoveredFraction(box) >= VisibleThreshold
}

// Clone returns a deep copy.
func (m *Mask) Clone() *Mask {
	return &Mask{Grid: m.Grid, bits: append([]uint64(nil), m.bits...)}
}

// String summarizes the mask.
func (m *Mask) String() string {
	return fmt.Sprintf("mask{%d/%d cells}", m.Count(), m.Grid.NumCells())
}
