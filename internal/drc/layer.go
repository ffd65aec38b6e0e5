package drc

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/tech"
)

// preparedLayer is what the rules derive from one layer's normalized
// rects, built on first use and then shared: where each y-band of the
// rects begins, and the boundary edges split by interior side, each side
// a list sorted by line. Rules run concurrently under RunCtx, so each
// part is built under a sync.Once and only read afterwards; it lives
// exactly as long as its Context.
type preparedLayer struct {
	once  sync.Once
	rects []geom.Rect // normalized
	bands []int32     // band k is rects[bands[k]:bands[k+1]]; the last entry is len(rects)

	sideOnce sync.Once
	sides    [4][]seg // by geom.Side
}

// seg is a boundary edge lying on the line at (y for a horizontal edge,
// x for a vertical one) and spanning [lo, hi) along it.
type seg struct{ at, lo, hi int64 }

// layer returns the prepared form of ctx.Layers[l].
func (c *Context) layer(l tech.Layer) *preparedLayer {
	p := &c.prep[l]
	p.once.Do(func() { p.prepare(c.Layers[l]) })
	return p
}

// prepare makes p the prepared form of rs, which must be in normal form.
func (p *preparedLayer) prepare(rs []geom.Rect) {
	var bands []int32
	for i, r := range rs {
		if i == 0 || r.Y0 != rs[i-1].Y0 {
			bands = append(bands, int32(i))
		}
	}
	p.rects, p.bands = rs, append(bands, int32(len(rs)))
}

// near calls f with the position and rect of every rect that intersects
// or touches q, in ascending position. In normal form the bands are
// y-disjoint and rise, and a band's rects are x-sorted and disjoint, so
// Y1 never falls along the layer and X1 never falls along a band: a
// binary search finds the first band reaching q, another in each band
// the first rect reaching it, and the walk stops at the first rect past
// it.
func (p *preparedLayer) near(q geom.Rect, f func(i int, r geom.Rect)) {
	if q.X0 > q.X1 || q.Y0 > q.Y1 {
		return
	}
	rs, bands := p.rects, p.bands
	b, nb := 0, len(bands)-1
	for j := nb; b < j; {
		h := int(uint(b+j) >> 1)
		if rs[bands[h]].Y1 < q.Y0 {
			b = h + 1
		} else {
			j = h
		}
	}
	for ; b < nb && rs[bands[b]].Y0 <= q.Y1; b++ {
		i, end := int(bands[b]), int(bands[b+1])
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

// boundary returns the layer's boundary edges by interior side, indexed
// by geom.Side. Each side is in (at, lo) order and its edges on one line
// are disjoint: the order geom.BoundaryOfNormal emits them in, kept by
// splitting its output without sorting.
func (p *preparedLayer) boundary() *[4][]seg {
	p.sideOnce.Do(func() {
		edges := geom.BoundaryOfNormal(p.rects)
		var n [4]int
		for _, e := range edges {
			n[e.Interior]++
		}
		backing := make([]seg, len(edges))
		for s := range p.sides {
			p.sides[s], backing = backing[:0:n[s]], backing[n[s]:]
		}
		for _, e := range edges {
			sg := seg{e.P0.Y, e.P0.X, e.P1.X}
			if !e.Horizontal() {
				sg = seg{e.P0.X, e.P0.Y, e.P1.Y}
			}
			p.sides[e.Interior] = append(p.sides[e.Interior], sg)
		}
	})
	return &p.sides
}

// clipArea is geom.ClipArea(p.rects, clip) at the cost of the rects
// near clip: normalized rects are disjoint, so the clipped areas of
// those that touch the box add up to the coverage.
func (p *preparedLayer) clipArea(clip geom.Rect) int64 {
	if clip.Empty() {
		return 0
	}
	var a int64
	p.near(clip, func(_ int, r geom.Rect) {
		a += r.Intersect(clip).Area()
	})
	return a
}

// coversPoint is geom.CoversPoint(p.rects, pt).
func (p *preparedLayer) coversPoint(pt geom.Point) bool {
	hit := false
	p.near(geom.Rect{X0: pt.X, Y0: pt.Y, X1: pt.X, Y1: pt.Y}, func(int, geom.Rect) {
		hit = true
	})
	return hit
}

// touching returns the layer's rects that intersect or touch q, in
// layer order: all of the layer a boolean op confined to q can see.
func (p *preparedLayer) touching(q geom.Rect) []geom.Rect {
	var out []geom.Rect
	p.near(q, func(_ int, r geom.Rect) {
		out = append(out, r)
	})
	return out
}
