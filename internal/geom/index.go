package geom

import (
	"math"
	"slices"
)

// Index is a uniform-grid spatial index over rectangles, used for
// neighbor queries in DRC spacing checks, pattern window extraction,
// critical-area analysis and via processing. Items are identified by
// the integer index assigned at insertion.
//
// Bins are row-major over the bin extent of everything indexed, each
// listing its item ids in ascending order, in one of two layouts. An
// index built in one go by IndexOf is frozen: one array of offsets and
// one of ids, 4 bytes per empty bin. An index grown by Insert keeps a
// slice per bin, and its array is re-laid (bin contents move by slice
// header, no item is re-binned) when an insert falls outside it. An
// Index may be queried from many goroutines at once as long as none
// inserts.
type Index struct {
	cell   int64
	items  []Rect
	bins   [][]int32 // grown: (by-oy)*w + (bx-ox); empty until the first insert
	start  []int32   // frozen: bin k is ids[start[k]:start[k+1]]; nil when grown
	ids    []int32
	ox, oy int64 // bin coordinates of bin 0
	w, h   int64 // extent in bins; zero until something is binned
	bbox   Rect  // hull of every binned item, in nm
}

// The grid is bounded at maxBinsPerItem bins per item and never below
// minBins. Past the bound the cell size is doubled: it is a performance
// hint, no result depends on it.
const (
	maxBinsPerItem = 64
	minBins        = 1 << 16
)

// NewIndex creates an empty index to Insert into, with the given grid
// cell size in nm. Cell size should be on the order of the typical
// query window (a few design-rule pitches) for good performance; it
// must be positive.
func NewIndex(cellSize int64) *Index {
	if cellSize <= 0 {
		cellSize = 1
	}
	return &Index{cell: cellSize}
}

// IndexOf indexes rects, item ids being positions in it, under the cell
// size rule of NewIndex. The slice is kept, not copied: it must not
// change while the index is in use.
func IndexOf(cellSize int64, rects []Rect) *Index {
	ix := NewIndex(cellSize)
	// Clipped, so that an Insert later cannot write into the caller's array.
	ix.items = slices.Clip(rects)
	n := 0
	for _, r := range rects {
		if !binnable(r) {
			continue
		}
		if n == 0 {
			ix.bbox = r
		} else {
			ix.bbox = hull(ix.bbox, r)
		}
		n++
	}
	if n == 0 {
		return ix
	}
	ix.span(ix.fit(binLimit(n)))
	// Count into start[k+2], sum so that start[k+1] is where bin k
	// begins, then let placing advance start[k+1] to where it ends:
	// what is left is the offsets, with no second array of cursors.
	bins := ix.w * ix.h
	start := make([]int32, bins+2)
	total := 0
	for _, r := range rects {
		if !binnable(r) {
			continue
		}
		x0, y0, x1, y1 := ix.binRange(r)
		for by := y0; by <= y1; by++ {
			row := start[(by-ix.oy)*ix.w+2:]
			for bx := x0 - ix.ox; bx <= x1-ix.ox; bx++ {
				row[bx]++
			}
		}
		total += int((x1 - x0 + 1) * (y1 - y0 + 1))
	}
	if total > math.MaxInt32 {
		// Offsets are 32 bits wide; a slice per bin has no such bound.
		ix.bins = make([][]int32, bins)
		for id, r := range rects {
			if binnable(r) {
				ix.place(int32(id), r)
			}
		}
		return ix
	}
	occupied := int64(0)
	for k := int64(2); k < bins+2; k++ {
		if start[k] != 0 {
			occupied++
		}
		start[k] += start[k-1]
	}
	cIndexBinsLaid.Add(bins)
	cIndexBinsOccupied.Add(occupied)
	ids := make([]int32, total)
	for id, r := range rects {
		if !binnable(r) {
			continue
		}
		x0, y0, x1, y1 := ix.binRange(r)
		for by := y0; by <= y1; by++ {
			row := start[(by-ix.oy)*ix.w+1:]
			for bx := x0 - ix.ox; bx <= x1-ix.ox; bx++ {
				ids[row[bx]] = int32(id)
				row[bx]++
			}
		}
	}
	ix.start, ix.ids = start[:bins+1], ids
	return ix
}

// Insert adds r and returns its item id. Inserting into an index made
// by IndexOf first moves it, in one pass, to the layout Insert grows.
func (ix *Index) Insert(r Rect) int {
	if ix.start != nil {
		ix.bins = make([][]int32, len(ix.start)-1)
		for k := range ix.bins {
			lo, hi := ix.start[k], ix.start[k+1]
			ix.bins[k] = ix.ids[lo:hi:hi]
		}
		ix.start, ix.ids = nil, nil
	}
	id := len(ix.items)
	if binnable(r) {
		ix.cover(r)
		ix.place(int32(id), r)
	}
	ix.items = append(ix.items, r)
	return id
}

// binnable reports whether r occupies any bin. A rect with X1 < X0 or
// Y1 < Y0 keeps its id but can never be found.
func binnable(r Rect) bool { return r.X0 <= r.X1 && r.Y0 <= r.Y1 }

// hull is the bounding box of two rects, degenerate ones included
// (Rect.Union ignores empty operands).
func hull(a, b Rect) Rect {
	return Rect{min(a.X0, b.X0), min(a.Y0, b.Y0), max(a.X1, b.X1), max(a.Y1, b.Y1)}
}

// place appends id to every bin r covers; the grid already covers r.
func (ix *Index) place(id int32, r Rect) {
	x0, y0, x1, y1 := ix.binRange(r)
	for by := y0; by <= y1; by++ {
		row := (by - ix.oy) * ix.w
		for bx := x0; bx <= x1; bx++ {
			k := row + bx - ix.ox
			ix.bins[k] = append(ix.bins[k], id)
		}
	}
}

// bin returns the ids in bin k, from whichever layout the index has.
func (ix *Index) bin(k int64) []int32 {
	if ix.start != nil {
		return ix.ids[ix.start[k]:ix.start[k+1]]
	}
	return ix.bins[k]
}

func (ix *Index) binRange(r Rect) (x0, y0, x1, y1 int64) {
	return floorDiv(r.X0, ix.cell), floorDiv(r.Y0, ix.cell),
		floorDiv(r.X1, ix.cell), floorDiv(r.Y1, ix.cell)
}

// binLimit is the most bins a grid over n items may have.
func binLimit(n int) int64 { return max(minBins, maxBinsPerItem*int64(n)) }

// fits reports whether a bin range holds at most limit bins.
func fits(limit, x0, y0, x1, y1 int64) bool {
	w, h := x1-x0+1, y1-y0+1
	return w > 0 && h > 0 && w <= limit && h <= limit/w
}

// fit returns the bin range of bbox, first doubling the cell for as
// long as that range holds more than limit bins: a few far-apart rects
// under a small cell would ask for an extent-squared array, and trade
// cell resolution for it.
func (ix *Index) fit(limit int64) (x0, y0, x1, y1 int64) {
	x0, y0, x1, y1 = ix.binRange(ix.bbox)
	for !fits(limit, x0, y0, x1, y1) {
		ix.cell *= 2
		x0, y0, x1, y1 = ix.binRange(ix.bbox)
	}
	return x0, y0, x1, y1
}

// span sets the grid's extent to a bin range.
func (ix *Index) span(x0, y0, x1, y1 int64) {
	ix.ox, ix.oy, ix.w, ix.h = x0, y0, x1-x0+1, y1-y0+1
}

// cover makes the bin array span r, which is about to be inserted.
func (ix *Index) cover(r Rect) {
	if ix.w == 0 {
		ix.bbox = r
	} else {
		ix.bbox = hull(ix.bbox, r)
		x0, y0, x1, y1 := ix.binRange(r)
		if x0 >= ix.ox && y0 >= ix.oy && x1 < ix.ox+ix.w && y1 < ix.oy+ix.h {
			return
		}
	}
	limit := binLimit(len(ix.items) + 1)
	cell := ix.cell
	x0, y0, x1, y1 := ix.fit(limit)
	if ix.cell != cell {
		// Every item's bins moved: re-bin them all.
		ix.span(x0, y0, x1, y1)
		ix.bins = make([][]int32, ix.w*ix.h)
		for id, it := range ix.items {
			if binnable(it) {
				ix.place(int32(id), it)
			}
		}
		return
	}
	if len(ix.bins) > 0 {
		// The array may already reach past the hull. Double it on the
		// sides that move, where that fits, so inserts marching across
		// the plane re-lay it O(log n) times.
		x0, y0 = min(x0, ix.ox), min(y0, ix.oy)
		x1, y1 = max(x1, ix.ox+ix.w-1), max(y1, ix.oy+ix.h-1)
		px0, py0, px1, py1 := x0, y0, x1, y1
		if x0 < ix.ox {
			px0 = min(x0, ix.ox-ix.w)
		}
		if y0 < ix.oy {
			py0 = min(y0, ix.oy-ix.h)
		}
		if x1 >= ix.ox+ix.w {
			px1 = max(x1, ix.ox+2*ix.w-1)
		}
		if y1 >= ix.oy+ix.h {
			py1 = max(y1, ix.oy+2*ix.h-1)
		}
		if fits(limit, px0, py0, px1, py1) {
			x0, y0, x1, y1 = px0, py0, px1, py1
		}
	}
	// Bin contents move by slice header; nothing is re-binned.
	w, h := x1-x0+1, y1-y0+1
	bins := make([][]int32, w*h)
	for by := int64(0); by < ix.h; by++ {
		copy(bins[(by+ix.oy-y0)*w+ix.ox-x0:], ix.bins[by*ix.w:(by+1)*ix.w])
	}
	ix.bins, ix.ox, ix.oy, ix.w, ix.h = bins, x0, y0, w, h
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
	if ix.w == 0 || q.X0 > q.X1 || q.Y0 > q.Y1 {
		return
	}
	x0, y0, x1, y1 := ix.binRange(q)
	x0, y0 = max(x0, ix.ox), max(y0, ix.oy)
	x1, y1 = min(x1, ix.ox+ix.w-1), min(y1, ix.oy+ix.h-1)
	for by := y0; by <= y1; by++ {
		row := (by - ix.oy) * ix.w
		// An item spanning several bins of the query is reported from
		// the first one in scan order: the bin holding its own low
		// corner, or the query's first row/column when that corner lies
		// before it. No visited-set is needed.
		ylo := by * ix.cell
		for bx := x0; bx <= x1; bx++ {
			xlo := bx * ix.cell
			for _, id := range ix.bin(row + bx - ix.ox) {
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
