package geom

import "slices"

// Index is a uniform-grid spatial index over rectangles that grows by
// Insert, for callers that insert before or between queries: routing,
// via doubling, fill, yield Monte Carlo and double-patterning conflict
// edges. A normal-form rect set that never changes is a Banded instead;
// dpt's feature boxes and yield's per-net wires never change either, but
// they overlap, so they are no Banded. Items are identified by the
// integer index assigned at insertion.
//
// Bins are row-major over the extent named at construction, a slice per
// bin listing its item ids in ascending order. A rect or query reaching
// past the extent is clamped into the edge bins it reaches, so the
// extent is a performance hint: no answer depends on it. An Index may be
// queried from many goroutines at once as long as none inserts.
type Index struct {
	cell   int64
	items  []Rect
	bins   [][]int32 // by*w + bx, bin coordinates relative to (ox, oy)
	ox, oy int64     // bin coordinates of bin 0
	w, h   int64     // extent in bins, at least one each
}

// maxBins bounds the grid. Past it the cell size is doubled: a huge
// extent under a small cell trades cell resolution for memory.
const maxBins = 1 << 16

// NewIndex creates an empty index to Insert into, laid over extent (an
// inside-out one over the box of its corners) at the given cell size in
// nm, which should be on the order of the typical query window (a few
// design-rule pitches); a non-positive one is taken as 1.
func NewIndex(extent Rect, cellSize int64) *Index {
	ix := &Index{cell: max(cellSize, 1)}
	x0, x1 := min(extent.X0, extent.X1), max(extent.X0, extent.X1)
	y0, y1 := min(extent.Y0, extent.Y1), max(extent.Y0, extent.Y1)
	for {
		ix.ox, ix.oy = floorDiv(x0, ix.cell), floorDiv(y0, ix.cell)
		// Counted unsigned: at cell 1 a full-range extent spans 2^64 bins,
		// one more than an int64 difference holds.
		dw, dh := uint64(floorDiv(x1, ix.cell)-ix.ox), uint64(floorDiv(y1, ix.cell)-ix.oy)
		if dw < maxBins && dh < maxBins && (dw+1)*(dh+1) <= maxBins {
			ix.w, ix.h = int64(dw+1), int64(dh+1)
			break
		}
		ix.cell *= 2 // at 2^62 any extent is 4x4 bins, so this stops before overflow
	}
	ix.bins = make([][]int32, ix.w*ix.h)
	return ix
}

// col and row are the grid column and row holding x and y, clamped to
// the grid. The clamp is in absolute bin coordinates, before bin 0's is
// subtracted: the difference overflows for a coordinate near the int64
// limits far from the extent.
func (ix *Index) col(x int64) int64 {
	return min(max(floorDiv(x, ix.cell), ix.ox), ix.ox+ix.w-1) - ix.ox
}

func (ix *Index) row(y int64) int64 {
	return min(max(floorDiv(y, ix.cell), ix.oy), ix.oy+ix.h-1) - ix.oy
}

// Insert adds r and returns its item id. A rect with X1 < X0 or Y1 < Y0
// keeps its id but can never be found.
func (ix *Index) Insert(r Rect) int {
	id := len(ix.items)
	ix.items = append(ix.items, r)
	if r.X0 > r.X1 || r.Y0 > r.Y1 {
		return id
	}
	x0, y0, x1, y1 := ix.col(r.X0), ix.row(r.Y0), ix.col(r.X1), ix.row(r.Y1)
	for by := y0; by <= y1; by++ {
		for bx := x0; bx <= x1; bx++ {
			k := by*ix.w + bx
			ix.bins[k] = append(ix.bins[k], int32(id))
		}
	}
	return id
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Query returns the ids of all items whose rectangle intersects or
// touches q, in ascending id order without duplicates.
func (ix *Index) Query(q Rect) []int {
	// Most answers are a handful of ids: gather them on the stack and
	// allocate the result once, at its final size.
	var buf [32]int
	ids := buf[:0]
	ix.QueryFunc(q, func(id int, _ Rect) bool {
		ids = append(ids, id)
		return true
	})
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids) // bins are visited row-major, not by id
	return slices.Clone(ids)
}

// QueryFunc calls f for each item intersecting or touching q; it
// avoids allocating the result slice when the caller only iterates.
// Items may be visited in any order; each item is visited once.
func (ix *Index) QueryFunc(q Rect, f func(id int, r Rect) bool) {
	if q.X0 > q.X1 || q.Y0 > q.Y1 {
		return
	}
	x0, y0, x1, y1 := ix.col(q.X0), ix.row(q.Y0), ix.col(q.X1), ix.row(q.Y1)
	for by := y0; by <= y1; by++ {
		// An item spanning several bins of the query is reported from
		// the first one in scan order: the bin holding its own low
		// corner, or the query's first row/column when that corner lies
		// before it. No visited-set is needed. Past the query's first
		// row/column a bin's low edge is a true bin boundary.
		ylo := (by + ix.oy) * ix.cell
		for bx := x0; bx <= x1; bx++ {
			xlo := (bx + ix.ox) * ix.cell
			for _, id := range ix.bins[by*ix.w+bx] {
				r := ix.items[id]
				if q.X0 > r.X1 || r.X0 > q.X1 || q.Y0 > r.Y1 || r.Y0 > q.Y1 {
					continue
				}
				if (bx > x0 && r.X0 < xlo) || (by > y0 && r.Y0 < ylo) {
					continue
				}
				if !f(int(id), r) {
					return
				}
			}
		}
	}
}
