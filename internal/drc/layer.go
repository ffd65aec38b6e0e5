package drc

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/tech"
)

// layerCell is the bin size of the per-layer indexes. Every query the
// deck makes is a few design-rule distances across (a facing pair's
// marker, a rect bloated by a spacing, a via's enclosure box), so a
// handful of minimum pitches per bin keeps both the bins a query
// touches and the items per bin small. Measured on generated tiles
// (BenchmarkDeckTile, BenchmarkDimensionScan), with an empty bin of a
// frozen index at 4 bytes: 512 lays four times the
// bins for a tenth more bytes on a sparse 48 µm tile and no resolvable
// speed, 2048 slows the dense comb and the smaller tiles by a tenth to
// a fifth.
const layerCell = 1024

// preparedLayer is what the rules derive from one layer's normalized
// rects, built on first use and then shared: one spatial index over the
// rects, and the boundary edges split by interior side, each side a list
// sorted by line. Rules run concurrently under RunCtx, so each part is
// built under a sync.Once and only read afterwards; it lives exactly as
// long as its Context.
type preparedLayer struct {
	once  sync.Once
	rects []geom.Rect // normalized; item ids of ix are positions here
	ix    *geom.Index

	sideOnce sync.Once
	sides    [4][]seg // by geom.Side
}

// seg is a boundary edge lying on the line at (y for a horizontal edge,
// x for a vertical one) and spanning [lo, hi) along it.
type seg struct{ at, lo, hi int64 }

// layer returns the prepared form of ctx.Layers[l].
func (c *Context) layer(l tech.Layer) *preparedLayer {
	p := &c.prep[l]
	p.once.Do(func() {
		p.rects = c.Layers[l]
		p.ix = geom.IndexOf(layerCell, p.rects)
	})
	return p
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
	p.ix.QueryFunc(clip, func(_ int, r geom.Rect) bool {
		a += r.Intersect(clip).Area()
		return true
	})
	return a
}

// coversPoint is geom.CoversPoint(p.rects, pt).
func (p *preparedLayer) coversPoint(pt geom.Point) bool {
	hit := false
	p.ix.QueryFunc(geom.Rect{X0: pt.X, Y0: pt.Y, X1: pt.X, Y1: pt.Y}, func(int, geom.Rect) bool {
		hit = true
		return false
	})
	return hit
}

// touching returns the layer's rects that intersect or touch q, in
// layer order: all of the layer a boolean op confined to q can see.
func (p *preparedLayer) touching(q geom.Rect) []geom.Rect {
	ids := p.ix.Query(q)
	out := make([]geom.Rect, len(ids))
	for i, id := range ids {
		out[i] = p.rects[id]
	}
	return out
}
