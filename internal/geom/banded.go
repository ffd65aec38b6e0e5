package geom

// Banded is a rect set in normal form together with where each of its
// y-bands begins, so that the rects near a query box are found by binary
// search instead of a scan of the whole set. In normal form the bands are
// y-disjoint and rise, and a band's rects are x-sorted and disjoint, so Y1
// never falls along the set and X1 never falls along a band. It is built
// once and then only read, so it may be shared across goroutines.
type Banded struct {
	rects []Rect
	bands []int32 // band k is rects[bands[k]:bands[k+1]]; the last entry is len(rects)
}

// BandedOf returns the banded form of rs, which must be in normal form
// (as Normalize and the boolean ops return it). rs is kept, not copied.
func BandedOf(rs []Rect) *Banded {
	var bands []int32
	for i, r := range rs {
		if i == 0 || r.Y0 != rs[i-1].Y0 {
			bands = append(bands, int32(i))
		}
	}
	return &Banded{rects: rs, bands: append(bands, int32(len(rs)))}
}

// Rects returns the normal-form rects the set was built from.
func (b *Banded) Rects() []Rect { return b.rects }

// Near calls f with the position and rect of every rect that intersects
// or touches q, in ascending position. An inside-out q touches nothing.
// A binary search finds the first band reaching q, another in each band
// the first rect reaching it, and the walk stops at the first rect past
// it.
func (b *Banded) Near(q Rect, f func(i int, r Rect)) {
	if q.X0 > q.X1 || q.Y0 > q.Y1 {
		return
	}
	rs, bands := b.rects, b.bands
	k, nb := 0, len(bands)-1
	for j := nb; k < j; {
		h := int(uint(k+j) >> 1)
		if rs[bands[h]].Y1 < q.Y0 {
			k = h + 1
		} else {
			j = h
		}
	}
	for ; k < nb && rs[bands[k]].Y0 <= q.Y1; k++ {
		i, end := int(bands[k]), int(bands[k+1])
		for j := end; i < j; {
			h := int(uint(i+j) >> 1)
			if rs[h].X1 < q.X0 {
				i = h + 1
			} else {
				j = h
			}
		}
		for ; i < end && rs[i].X0 <= q.X1; i++ {
			f(i, rs[i])
		}
	}
}

// ClipArea is ClipArea(b.Rects(), q) at the cost of the rects near q:
// normal-form rects are disjoint, so the clipped areas of those that
// touch q add up to the coverage.
func (b *Banded) ClipArea(q Rect) int64 {
	if q.Empty() {
		return 0
	}
	var a int64
	b.Near(q, func(_ int, r Rect) {
		a += r.Intersect(q).Area()
	})
	return a
}

// Clip appends the normal form of the set inside q to dst and returns
// it: Intersect(b.Rects(), []Rect{q}) without a sweep. Clipping keeps a
// band's rects x-sorted with gaps between them, so only two things can
// leave normal form: a rect that merely touches q clips to nothing and is
// dropped, and two abutting bands whose x-spans differed only outside q
// become equal and are merged into the lower one.
func (b *Banded) Clip(q Rect, dst []Rect) []Rect {
	if q.Empty() {
		return dst
	}
	prev, cur := -1, len(dst) // the last band kept and the one being clipped, as positions in dst
	closeBand := func() {
		if cur == len(dst) {
			return
		}
		if prev >= 0 && dst[prev].Y1 == dst[cur].Y0 && sameXSpans(dst[prev:cur], dst[cur:]) {
			for i := prev; i < cur; i++ {
				dst[i].Y1 = dst[cur].Y1
			}
			dst = dst[:cur]
		} else {
			prev = cur
		}
		cur = len(dst)
	}
	b.Near(q, func(_ int, r Rect) {
		c := r.Intersect(q)
		if c.Empty() {
			return
		}
		if cur < len(dst) && dst[cur].Y0 != c.Y0 {
			closeBand()
		}
		dst = append(dst, c)
	})
	closeBand()
	return dst
}

// Components groups the set into connected regions (touching, corners
// included, counts as connected), each as the rects of the set it holds,
// in position order. Components are numbered by their first rect.
func (b *Banded) Components() [][]Rect {
	comp, sizes := b.label()
	if len(sizes) == 0 {
		return nil
	}
	// Cut every component from one backing array.
	backing := make([]Rect, 0, len(b.rects))
	out := make([][]Rect, len(sizes))
	for c, sz := range sizes {
		out[c] = backing[len(backing) : len(backing) : len(backing)+sz]
		backing = backing[:len(backing)+sz]
	}
	for i, r := range b.rects {
		out[comp[i]] = append(out[comp[i]], r)
	}
	return out
}

// Region is what a connected region of a set measures: the area it
// covers and its bounding box.
type Region struct {
	Area int64
	BBox Rect
}

// Regions is Components measured: each component's area and bounding
// box, in the same order, without gathering its rects.
func (b *Banded) Regions() []Region {
	comp, sizes := b.label()
	if len(sizes) == 0 {
		return nil
	}
	out := make([]Region, len(sizes))
	for i, r := range b.rects {
		g := &out[comp[i]]
		g.Area += r.Area() // normal-form rects are disjoint: their areas add up
		g.BBox = g.BBox.Union(r)
	}
	return out
}

// label numbers the connected components of the set by first rect and
// returns each rect's component and each component's size. In normal
// form two rects can only touch across the line one band ends and the
// next begins, so each band is joined to the one below, when the two
// abut, by a merge of their x-sorted rects.
func (b *Banded) label() (comp []int32, sizes []int) {
	rs := b.rects
	n := len(rs)
	if n == 0 {
		return nil, nil
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for k := 1; k+1 < len(b.bands); k++ {
		prev, lo, hi := int(b.bands[k-1]), int(b.bands[k]), int(b.bands[k+1])
		if rs[prev].Y1 != rs[lo].Y0 {
			continue
		}
		for i, j := prev, lo; i < lo && j < hi; {
			a, c := rs[i], rs[j]
			if a.X0 <= c.X1 && c.X0 <= a.X1 { // touch-inclusive
				if ra, rc := find(int32(i)), find(int32(j)); ra != rc {
					parent[rc] = ra
				}
			}
			// The one ending first touches nothing further along.
			if a.X1 < c.X1 {
				i++
			} else {
				j++
			}
		}
	}
	for i := range parent {
		parent[i] = find(int32(i))
	}
	// Number the components by first rect and size them; then parent,
	// every rect's root, becomes every rect's component.
	byRoot := make([]int32, n) // component number + 1
	for _, root := range parent {
		if byRoot[root] == 0 {
			sizes = append(sizes, 0)
			byRoot[root] = int32(len(sizes))
		}
		sizes[byRoot[root]-1]++
	}
	for i, root := range parent {
		parent[i] = byRoot[root] - 1
	}
	return parent, sizes
}
