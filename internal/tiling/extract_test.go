package tiling

import (
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// chipTop generates a chip and returns its top cell.
func chipTop(t *testing.T, opts layout.ChipOpts) *layout.Cell {
	t.Helper()
	l, _, err := layout.GenerateChip(tech.N45(), opts)
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	return l.Top
}

// flatWindow is the brute-force oracle: flatten everything, keep
// shapes touching win, clear nets like the extractor does.
func flatWindow(top *layout.Cell, win geom.Rect) []layout.Shape {
	var out []layout.Shape
	for _, s := range (&layout.Layout{Top: top}).Flatten() {
		if touches(s.R, win) {
			s.Net = layout.NoNet
			out = append(out, s)
		}
	}
	return out
}

func sortShapes(ss []layout.Shape) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.R.X0 != b.R.X0 {
			return a.R.X0 < b.R.X0
		}
		if a.R.Y0 != b.R.Y0 {
			return a.R.Y0 < b.R.Y0
		}
		if a.R.X1 != b.R.X1 {
			return a.R.X1 < b.R.X1
		}
		return a.R.Y1 < b.R.Y1
	})
}

func TestExtractorMatchesFlatten(t *testing.T) {
	top := chipTop(t, layout.ChipOpts{Seed: 7, Slots: 2, Defects: 2})
	ex := NewExtractor(top)

	// The summaries against an oracle over the flat view: the bbox of
	// every shape, of each layer's, and the shape count.
	flat := (&layout.Layout{Top: top}).Flatten()
	var bbox geom.Rect
	var layerBB [tech.NumLayers]geom.Rect
	for _, s := range flat {
		bbox = bbox.Union(s.R)
		layerBB[s.Layer] = layerBB[s.Layer].Union(s.R)
	}
	if got, want := ex.Rects(), int64(len(flat)); got != want {
		t.Fatalf("Rects() = %d, flat count = %d", got, want)
	}
	if got := ex.BBox(); got != bbox || top.BBox() != bbox {
		t.Fatalf("BBox() = %v, Cell.BBox() = %v, flat bbox = %v", got, top.BBox(), bbox)
	}
	for l := tech.Layer(0); l < tech.NumLayers; l++ {
		if got, want := ex.LayerBBox(l), layerBB[l]; got != want {
			t.Fatalf("LayerBBox(%v) = %v, flat layer bbox = %v", l, got, want)
		}
	}

	die := ex.BBox()
	wins := []geom.Rect{
		die, // everything
		geom.R(die.X0-5000, die.Y0-5000, die.X0, die.Y0), // outside: empty
		geom.R(die.X0, die.Y0, die.X0+9000, die.Y0+9000),
		geom.R(die.X0+11000, die.Y0+13000, die.X0+26000, die.Y0+20000), // slot seam
		geom.R(die.X0+24000, die.Y0, die.X0+24000+1, die.Y1),           // sliver on slot boundary
	}
	for _, win := range wins {
		got := ex.AppendShapes(win, nil)
		want := flatWindow(top, win)
		sortShapes(got)
		sortShapes(want)
		if len(got) != len(want) {
			t.Fatalf("win %v: extracted %d shapes, flat filter %d", win, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("win %v: shape %d = %+v, want %+v", win, i, got[i], want[i])
			}
		}
		for _, l := range []tech.Layer{tech.Metal1, tech.Metal2, tech.Poly} {
			rs := ex.AppendLayerRects(win, l, nil)
			var wantRs []geom.Rect
			for _, s := range want {
				if s.Layer == l {
					wantRs = append(wantRs, s.R)
				}
			}
			sortRects(rs)
			sortRects(wantRs)
			if len(rs) != len(wantRs) {
				t.Fatalf("win %v layer %v: %d rects, want %d", win, l, len(rs), len(wantRs))
			}
			for i := range rs {
				if rs[i] != wantRs[i] {
					t.Fatalf("win %v layer %v: rect %d = %v, want %v", win, l, i, rs[i], wantRs[i])
				}
			}
		}
	}
}

func sortRects(rs []geom.Rect) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		if a.X1 != b.X1 {
			return a.X1 < b.X1
		}
		return a.Y1 < b.Y1
	})
}

// Whole shapes must come out even when only their edge touches the
// window, and instance pruning must not drop a subtree whose bbox
// merely abuts the window.
func TestExtractorTouchInclusive(t *testing.T) {
	tt := tech.N45()
	leaf := layout.NewCell("X_LEAF")
	leaf.Add(tech.Metal1, geom.R(0, 0, 100, 100))
	top := layout.NewCell("X_TOP")
	top.Place(leaf, geom.Translate(1000, 1000), "u0")
	ex := NewExtractor(top)

	// Window whose right edge lands exactly on the shape's left edge.
	got := ex.AppendShapes(geom.R(0, 0, 1000, 1000), nil)
	if len(got) != 1 || got[0].R != geom.R(1000, 1000, 1100, 1100) {
		t.Fatalf("abutting window: got %+v, want the whole shape", got)
	}
	// One nm short: nothing.
	if got := ex.AppendShapes(geom.R(0, 0, 999, 999), nil); len(got) != 0 {
		t.Fatalf("separated window: got %+v, want none", got)
	}
	_ = tt
}
