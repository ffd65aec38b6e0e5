package drc

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/tech"
)

// preparedLayer is what the rules derive from one layer's normalized
// rects, built on first use and then shared: the rects in banded form,
// whose walk finds what is near a box, and the boundary edges split by
// interior side, each side a list sorted by line. Rules run concurrently
// under RunCtx, so each part is built under a sync.Once and only read
// afterwards; it lives exactly as long as its Context.
type preparedLayer struct {
	once sync.Once
	*geom.Banded

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
func (p *preparedLayer) prepare(rs []geom.Rect) { p.Banded = geom.BandedOf(rs) }

// boundary returns the layer's boundary edges by interior side, indexed
// by geom.Side. Each side is in (at, lo) order and its edges on one line
// are disjoint: the order geom.BoundaryOfNormal emits them in, kept by
// splitting its output without sorting.
func (p *preparedLayer) boundary() *[4][]seg {
	p.sideOnce.Do(func() {
		edges := geom.BoundaryOfNormal(p.Rects())
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

// coversPoint is geom.CoversPoint(p.Rects(), pt).
func (p *preparedLayer) coversPoint(pt geom.Point) bool {
	hit := false
	p.Near(geom.Rect{X0: pt.X, Y0: pt.Y, X1: pt.X, Y1: pt.Y}, func(int, geom.Rect) {
		hit = true
	})
	return hit
}

// touching returns the layer's rects that intersect or touch q, in
// layer order: all of the layer a boolean op confined to q can see.
func (p *preparedLayer) touching(q geom.Rect) []geom.Rect {
	var out []geom.Rect
	p.Near(q, func(_ int, r geom.Rect) {
		out = append(out, r)
	})
	return out
}
