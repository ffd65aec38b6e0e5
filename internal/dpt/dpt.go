// Package dpt implements double-patterning decomposition, the
// post-2008 DFM technique the panelists saw coming: features closer
// than the single-exposure resolution limit must go on different
// masks. Decomposition builds the conflict graph, 2-colors it, reports
// odd-cycle conflicts, and attempts stitch-based repair (splitting a
// feature across both masks with an overlap).
package dpt

import (
	"sort"

	"repro/internal/geom"
)

// Feature is one connected region to be assigned a mask.
type Feature struct {
	ID    int
	Rects []geom.Rect
	BBox  geom.Rect
	Mask  int // 0/1 after decomposition, -1 if uncolored
}

// Conflict records one same-mask adjacency that could not be resolved
// (evidence of an odd cycle through these features).
type Conflict struct {
	A, B int // feature IDs
	Gap  int64
}

// Result is a decomposition outcome.
type Result struct {
	Features  []*Feature
	Conflicts []Conflict
	Stitches  int // features split during repair
	// Edges is the number of sub-single-exposure adjacencies the
	// decomposition had to separate — the size of the problem DPT
	// solves (every one of them is unprintable in one exposure).
	Edges int
}

// MaskRects returns the rects assigned to mask m (0 or 1) as one
// normalized set: a single n-ary union sweep over the per-feature
// geometry instead of concatenate-then-normalize.
func (r *Result) MaskRects(m int) []geom.Rect {
	sets := make([][]geom.Rect, 0, len(r.Features))
	for _, f := range r.Features {
		if f.Mask == m {
			sets = append(sets, f.Rects)
		}
	}
	return geom.UnionAll(sets...)
}

// DensityBalance returns |area(mask0) - area(mask1)| / total, the mask
// loading balance metric (0 = perfectly balanced).
func (r *Result) DensityBalance() float64 {
	a0 := geom.AreaOf(r.MaskRects(0))
	a1 := geom.AreaOf(r.MaskRects(1))
	if a0+a1 == 0 {
		return 0
	}
	d := a0 - a1
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(a0+a1)
}

// Decompose 2-colors the features of the layer: any two features
// closer than minSameMask must take different masks. When stitching
// is enabled, features causing odd-cycle conflicts are split at their
// midpoint (with a stitch overlap) and coloring is retried; the best
// state seen (fewest conflicts, then fewest stitches) is returned, so
// an unhelpful split never degrades the result.
func Decompose(rs []geom.Rect, minSameMask int64, stitch bool, stitchOverlap int64) *Result {
	feats := buildFeatures(rs)
	res := &Result{Features: feats}

	var best *Result
	record := func() {
		if best == nil || len(res.Conflicts) < len(best.Conflicts) ||
			(len(res.Conflicts) == len(best.Conflicts) && res.Stitches < best.Stitches) {
			best = snapshot(res)
		}
	}

	for attempt := 0; ; attempt++ {
		res.Conflicts, res.Edges = color(res.Features, minSameMask)
		record()
		if len(res.Conflicts) == 0 || !stitch || attempt >= 4 {
			return best
		}
		// Split the first splittable conflicting feature and retry.
		split := false
		seen := map[int]bool{}
		for _, c := range res.Conflicts {
			for _, id := range [2]int{c.A, c.B} {
				if seen[id] {
					continue
				}
				seen[id] = true
				f := res.Features[id]
				if halves, ok := splitFeature(f, stitchOverlap); ok {
					// Replace f's geometry with half 1 and append half 2.
					f.Rects = halves[0]
					f.BBox = geom.BBoxOf(halves[0])
					nf := &Feature{ID: len(res.Features), Rects: halves[1], BBox: geom.BBoxOf(halves[1])}
					res.Features = append(res.Features, nf)
					res.Stitches++
					split = true
					break
				}
			}
			if split {
				break
			}
		}
		if !split {
			return best // nothing splittable; conflicts stand
		}
	}
}

// snapshot deep-copies a result's mutable state.
func snapshot(r *Result) *Result {
	out := &Result{Stitches: r.Stitches, Edges: r.Edges}
	out.Features = make([]*Feature, len(r.Features))
	for i, f := range r.Features {
		nf := *f
		nf.Rects = append([]geom.Rect{}, f.Rects...)
		out.Features[i] = &nf
	}
	out.Conflicts = append([]Conflict{}, r.Conflicts...)
	return out
}

// buildFeatures groups the normalized rects into connected components.
func buildFeatures(rs []geom.Rect) []*Feature {
	norm := geom.Normalize(rs)
	n := len(norm)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	ix := geom.IndexOf(1024, norm)
	for i, r := range norm {
		for _, id := range ix.Query(r) {
			if id > i {
				ra, rb := find(i), find(id)
				if ra != rb {
					parent[rb] = ra
				}
			}
		}
	}
	groups := make(map[int][]geom.Rect)
	var order []int
	for i, r := range norm {
		root := find(i)
		if _, ok := groups[root]; !ok {
			order = append(order, root)
		}
		groups[root] = append(groups[root], r)
	}
	sort.Ints(order)
	feats := make([]*Feature, 0, len(order))
	for _, root := range order {
		f := &Feature{ID: len(feats), Rects: groups[root], Mask: -1}
		f.BBox = geom.BBoxOf(f.Rects)
		feats = append(feats, f)
	}
	return feats
}

// color BFS-2-colors the conflict graph and returns the edges that end
// up monochromatic (odd cycles) plus the total conflict-edge count.
func color(feats []*Feature, minSameMask int64) ([]Conflict, int) {
	for _, f := range feats {
		f.Mask = -1
	}
	adj := buildConflictEdges(feats, minSameMask)
	edges := 0
	for _, a := range adj {
		edges += len(a)
	}
	edges /= 2

	var conflicts []Conflict
	var maskArea [2]int64
	areaOf := func(f *Feature) int64 {
		var a int64
		for _, r := range f.Rects {
			a += r.Area()
		}
		return a
	}
	for _, f := range feats {
		if f.Mask != -1 {
			continue
		}
		// Seed each component on the lighter mask so unconstrained
		// layouts still come out load-balanced.
		f.Mask = 0
		if maskArea[1] < maskArea[0] {
			f.Mask = 1
		}
		queue := []int{f.ID}
		maskArea[f.Mask] += areaOf(f)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range adj[cur] {
				o := feats[e.other]
				if o.Mask == -1 {
					o.Mask = 1 - feats[cur].Mask
					maskArea[o.Mask] += areaOf(o)
					queue = append(queue, o.ID)
				} else if o.Mask == feats[cur].Mask {
					a, b := cur, e.other
					if a > b {
						a, b = b, a
					}
					conflicts = append(conflicts, Conflict{A: a, B: b, Gap: e.gap})
				}
			}
		}
	}
	// Dedupe conflicts (both BFS directions can report the same edge).
	sort.Slice(conflicts, func(i, j int) bool {
		if conflicts[i].A != conflicts[j].A {
			return conflicts[i].A < conflicts[j].A
		}
		return conflicts[i].B < conflicts[j].B
	})
	out := conflicts[:0]
	for i, c := range conflicts {
		if i > 0 && c.A == out[len(out)-1].A && c.B == out[len(out)-1].B {
			continue
		}
		out = append(out, c)
	}
	return out, edges
}

type edge struct {
	other int
	gap   int64
}

// buildConflictEdges finds feature pairs closer than minSameMask.
func buildConflictEdges(feats []*Feature, minSameMask int64) [][]edge {
	adj := make([][]edge, len(feats))
	ix := geom.NewIndex(2048)
	for _, f := range feats {
		ix.Insert(f.BBox)
	}
	for i, f := range feats {
		for _, j := range ix.Query(f.BBox.Bloat(minSameMask)) {
			if j <= i {
				continue
			}
			g := featureGap(f, feats[j])
			if g > 0 && g < minSameMask {
				adj[i] = append(adj[i], edge{other: j, gap: g})
				adj[j] = append(adj[j], edge{other: i, gap: g})
			}
		}
	}
	return adj
}

// featureGap returns the minimum rect-pair distance between two
// features.
func featureGap(a, b *Feature) int64 {
	best := int64(1) << 62
	for _, ra := range a.Rects {
		for _, rb := range b.Rects {
			if d := ra.Distance(rb); d < best {
				best = d
			}
		}
	}
	return best
}

// splitFeature cuts a feature across its long axis at the bbox middle,
// with each half extended by the stitch overlap. Only simple features
// (long enough for two legal halves) split.
func splitFeature(f *Feature, overlap int64) ([2][]geom.Rect, bool) {
	bb := f.BBox
	var out [2][]geom.Rect
	if bb.Width() >= bb.Height() {
		if bb.Width() < 4*overlap {
			return out, false
		}
		mid := (bb.X0 + bb.X1) / 2
		left := geom.Intersect(f.Rects, []geom.Rect{geom.R(bb.X0, bb.Y0, mid+overlap, bb.Y1)})
		right := geom.Intersect(f.Rects, []geom.Rect{geom.R(mid-overlap, bb.Y0, bb.X1, bb.Y1)})
		out[0], out[1] = left, right
	} else {
		if bb.Height() < 4*overlap {
			return out, false
		}
		mid := (bb.Y0 + bb.Y1) / 2
		bot := geom.Intersect(f.Rects, []geom.Rect{geom.R(bb.X0, bb.Y0, bb.X1, mid+overlap)})
		top := geom.Intersect(f.Rects, []geom.Rect{geom.R(bb.X0, mid-overlap, bb.X1, bb.Y1)})
		out[0], out[1] = bot, top
	}
	if len(out[0]) == 0 || len(out[1]) == 0 {
		return out, false
	}
	return out, true
}
