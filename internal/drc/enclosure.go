package drc

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Enclosure requires each cut on Via to be enclosed by Metal with at
// least End on two opposite sides and Side on the other two, in either
// orientation — the standard rectangular-enclosure via rule that lets
// minimum-width wires carry vias with end extensions.
type Enclosure struct {
	Via   tech.Layer
	Metal tech.Layer
	End   int64
	Side  int64
}

// Name implements Rule.
func (r Enclosure) Name() string {
	return fmt.Sprintf("%s.enc.%s.%d", r.Via, r.Metal, r.End)
}

// Check implements Rule.
func (r Enclosure) Check(ctx *Context) []Violation {
	metal := ctx.layer(r.Metal)
	covered := func(want geom.Rect) bool {
		return metal.clipArea(want) == want.Area()
	}
	name := r.Name()
	detail := fmt.Sprintf("cut not enclosed by %s by %d/%d in either orientation", r.Metal, r.End, r.Side)
	var out []Violation
	for _, s := range ctx.Shapes {
		if s.Layer != r.Via {
			continue
		}
		if covered(s.R.BloatXY(r.End, r.Side)) || covered(s.R.BloatXY(r.Side, r.End)) {
			continue
		}
		out = append(out, Violation{
			Rule:   name,
			Layer:  r.Via,
			Marker: s.R,
			Detail: detail,
		})
	}
	return out
}

// MinArea requires every connected region on the layer to have at
// least A nm^2 of area (small islands detach or lift during etch/CMP).
type MinArea struct {
	Layer tech.Layer
	A     int64
}

// Name implements Rule.
func (r MinArea) Name() string { return fmt.Sprintf("%s.area.%d", r.Layer, r.A) }

// Check implements Rule.
func (r MinArea) Check(ctx *Context) []Violation {
	name := r.Name()
	ly := ctx.layer(r.Layer)
	var out []Violation
	for _, comp := range components(ly.rects) {
		var a int64 // a component's rects are disjoint: their areas add up
		for _, rc := range comp {
			a += rc.Area()
		}
		if a < r.A {
			out = append(out, Violation{
				Rule:   name,
				Layer:  r.Layer,
				Marker: geom.BBoxOf(comp),
				Detail: fmt.Sprintf("region area %d < %d", a, r.A),
			})
		}
	}
	return out
}

// Components groups the region rs covers into connected regions
// (touching, corners included, counts as connected), each as the
// normalized rects of geom.Normalize(rs) it holds. Returned components
// are in deterministic order (by first rect).
func Components(rs []geom.Rect) [][]geom.Rect {
	return components(geom.Normalize(rs))
}

// components is Components over rects already in normal form, where two
// rects can only touch across the line one band ends and the next
// begins: it joins each band to the one below, when the two abut, by a
// merge of their x-sorted rects.
func components(norm []geom.Rect) [][]geom.Rect {
	n := len(norm)
	if n == 0 {
		return nil
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
	prev := 0 // the band below is norm[prev:lo]
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && norm[hi].Y0 == norm[lo].Y0 {
			hi++
		}
		if lo > 0 && norm[prev].Y1 == norm[lo].Y0 {
			for i, j := prev, lo; i < lo && j < hi; {
				a, b := norm[i], norm[j]
				if a.X0 <= b.X1 && b.X0 <= a.X1 { // touch-inclusive
					if ra, rb := find(int32(i)), find(int32(j)); ra != rb {
						parent[rb] = ra
					}
				}
				// The one ending first touches nothing further along.
				if a.X1 < b.X1 {
					i++
				} else {
					j++
				}
			}
		}
		prev, lo = lo, hi
	}
	// Number the components by first rect, size them, and cut them all
	// from one backing array.
	comp := make([]int32, n) // by root: component number + 1
	var sizes []int
	for i := range norm {
		root := find(int32(i))
		if comp[root] == 0 {
			sizes = append(sizes, 0)
			comp[root] = int32(len(sizes))
		}
		sizes[comp[root]-1]++
	}
	backing := make([]geom.Rect, 0, n)
	out := make([][]geom.Rect, len(sizes))
	for c, sz := range sizes {
		out[c] = backing[len(backing) : len(backing) : len(backing)+sz]
		backing = backing[:len(backing)+sz]
	}
	for i, r := range norm {
		c := comp[find(int32(i))] - 1
		out[c] = append(out[c], r)
	}
	return out
}
