package dpt

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// lines builds n parallel vertical lines at the given pitch.
func lines(n int, width, pitch, length int64) []geom.Rect {
	var rs []geom.Rect
	for i := int64(0); i < int64(n); i++ {
		rs = append(rs, geom.R(i*pitch, 0, i*pitch+width, length))
	}
	return rs
}

func TestDecomposeAlternatesDenseLines(t *testing.T) {
	// 5 lines at 100nm gaps with a 150nm same-mask minimum: a path
	// graph, 2-colorable by alternation.
	rs := lines(5, 50, 150, 1000)
	res := Decompose(rs, 150, false, 0)
	if len(res.Conflicts) != 0 {
		t.Fatalf("path graph reported conflicts: %v", res.Conflicts)
	}
	if len(res.Features) != 5 {
		t.Fatalf("feature count = %d", len(res.Features))
	}
	for i := 1; i < 5; i++ {
		if res.Features[i].Mask == res.Features[i-1].Mask {
			t.Fatalf("adjacent lines share a mask")
		}
	}
	// Masks are roughly balanced.
	if b := res.DensityBalance(); b > 0.34 {
		t.Fatalf("balance = %v", b)
	}
}

func TestDecomposeSparseNoConstraint(t *testing.T) {
	// Lines far apart: no conflict edges; the decomposer load-balances
	// the unconstrained features across both masks.
	rs := lines(4, 50, 500, 1000)
	res := Decompose(rs, 150, false, 0)
	if len(res.Conflicts) != 0 {
		t.Fatalf("sparse lines conflicted")
	}
	var count [2]int
	for _, f := range res.Features {
		if f.Mask != 0 && f.Mask != 1 {
			t.Fatalf("feature got mask %d", f.Mask)
		}
		count[f.Mask]++
	}
	if count[0] != 2 || count[1] != 2 {
		t.Fatalf("unconstrained features not balanced: %v", count)
	}
}

// triangle builds three mutually-close features (odd cycle).
func triangle() []geom.Rect {
	return []geom.Rect{
		geom.R(0, 0, 100, 100),
		geom.R(180, 0, 280, 100),
		geom.R(90, 180, 190, 280),
	}
}

func TestDecomposeDetectsOddCycle(t *testing.T) {
	res := Decompose(triangle(), 150, false, 0)
	if len(res.Conflicts) == 0 {
		t.Fatalf("odd cycle not detected")
	}
}

func TestStitchRepairsOddCycle(t *testing.T) {
	// A fixable odd cycle: a long horizontal bar A adjacent at its two
	// ends to L-shaped features B and C, which also approach each
	// other at the top. Triangle A-B-C; splitting A at its middle
	// separates the two end adjacencies and the graph becomes a path.
	rs := []geom.Rect{
		// A
		geom.R(0, 0, 2000, 100),
		// B: vertical trunk + horizontal arm
		geom.R(0, 180, 100, 1000),
		geom.R(0, 900, 980, 1000),
		// C: mirror image
		geom.R(1900, 180, 2000, 1000),
		geom.R(1020, 900, 2000, 1000),
	}
	plain := Decompose(rs, 150, false, 0)
	if len(plain.Conflicts) == 0 {
		t.Fatalf("expected an odd-cycle conflict without stitching")
	}
	res := Decompose(rs, 150, true, 40)
	if res.Stitches == 0 {
		t.Fatalf("no stitches inserted")
	}
	if len(res.Conflicts) != 0 {
		t.Fatalf("stitching did not resolve the cycle: %v", res.Conflicts)
	}
	// Mask geometry covers the original (stitch overlaps included).
	all := geom.Union(res.MaskRects(0), res.MaskRects(1))
	if geom.AreaOf(geom.Subtract(geom.Normalize(rs), all)) != 0 {
		t.Fatalf("decomposition lost geometry")
	}
	// The stitch region is on both masks.
	if geom.AreaOf(geom.Intersect(res.MaskRects(0), res.MaskRects(1))) == 0 {
		t.Fatalf("no stitch overlap between masks")
	}
}

func TestNativeConflictSurvivesStitching(t *testing.T) {
	// Three full-height bars in mutual adjacency form a native
	// triangle no stitch can fix; the decomposer must report it
	// rather than loop forever.
	rs := []geom.Rect{
		geom.R(0, 0, 100, 800),
		geom.R(180, 0, 280, 800),
		geom.R(90, 880, 190, 1680),
	}
	res := Decompose(rs, 150, true, 40)
	if len(res.Conflicts) == 0 {
		t.Fatalf("native conflict vanished")
	}
}

func TestConflictsGrowAsPitchShrinks(t *testing.T) {
	// F5's shape: at loose pitch no conflicts; at tight pitch with a
	// triangular arrangement, conflicts appear.
	loose := Decompose(lines(8, 50, 400, 2000), 150, false, 0)
	if len(loose.Conflicts) != 0 {
		t.Fatalf("loose pitch conflicted")
	}
	// A grid with diagonal adjacency: tighten until odd cycles form.
	var tight []geom.Rect
	for i := int64(0); i < 3; i++ {
		for j := int64(0); j < 3; j++ {
			tight = append(tight, geom.R(i*170+j*85, j*170, i*170+j*85+80, j*170+80))
		}
	}
	res := Decompose(tight, 160, false, 0)
	if len(res.Conflicts) == 0 {
		t.Fatalf("tight diagonal grid produced no conflicts")
	}
}

func TestMaskRectsPartition(t *testing.T) {
	rs := lines(6, 50, 150, 1000)
	res := Decompose(rs, 150, false, 0)
	m0, m1 := res.MaskRects(0), res.MaskRects(1)
	if geom.AreaOf(m0)+geom.AreaOf(m1) != geom.AreaOf(geom.Normalize(rs)) {
		t.Fatalf("masks do not partition the layer")
	}
	if geom.AreaOf(geom.Intersect(m0, m1)) != 0 {
		t.Fatalf("masks overlap without stitching")
	}
}

// groupsOracle is what buildFeatures must group rs into: a union-find
// over every pair of normal-form rects that intersect or touch, corners
// included, by an O(n²) scan, each group in position order and the
// groups numbered by first rect.
func groupsOracle(rs []geom.Rect) [][]geom.Rect {
	norm := geom.Normalize(rs)
	parent := make([]int, len(norm))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for i, a := range norm {
		for j := i + 1; j < len(norm); j++ {
			b := norm[j]
			if a.X0 <= b.X1 && b.X0 <= a.X1 && a.Y0 <= b.Y1 && b.Y0 <= a.Y1 {
				if ra, rb := find(i), find(j); ra != rb {
					parent[max(ra, rb)] = min(ra, rb)
				}
			}
		}
	}
	var out [][]geom.Rect
	group := make(map[int]int) // by root
	for i, r := range norm {
		root := find(i)
		g, ok := group[root]
		if !ok {
			g = len(out)
			group[root] = g
			out = append(out, nil)
		}
		out[g] = append(out[g], r)
	}
	return out
}

func TestFeatureGrouping(t *testing.T) {
	// Touching rects are one feature.
	rs := []geom.Rect{geom.R(0, 0, 100, 50), geom.R(100, 0, 200, 50), geom.R(500, 0, 600, 50)}
	res := Decompose(rs, 100, false, 0)
	if len(res.Features) != 2 {
		t.Fatalf("feature count = %d, want 2", len(res.Features))
	}
	// Dense random sets, where overlaps, edge and corner touches are
	// common: the features are exactly the oracle's groups, numbered by
	// first normal-form rect, each with its bounding box and no mask.
	rnd := rand.New(rand.NewSource(44))
	for round := 0; round < 200; round++ {
		var rs []geom.Rect
		for i, n := 0, 1+rnd.Intn(40); i < n; i++ {
			x, y := rnd.Int63n(40)*10, rnd.Int63n(40)*10
			rs = append(rs, geom.R(x, y, x+10*(1+rnd.Int63n(8)), y+10*(1+rnd.Int63n(8))))
		}
		want := groupsOracle(rs)
		feats := buildFeatures(rs)
		got := make([][]geom.Rect, len(feats))
		for i, f := range feats {
			if f.ID != i || f.Mask != -1 || f.BBox != geom.BBoxOf(f.Rects) {
				t.Fatalf("feature %d of %v: ID %d, mask %d, bbox %v of %v", i, rs, f.ID, f.Mask, f.BBox, f.Rects)
			}
			got[i] = f.Rects
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("buildFeatures(%v)\n got %v\nwant %v", rs, got, want)
		}
	}
}
