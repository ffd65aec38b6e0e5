package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoundaryEdgesOfRect(t *testing.T) {
	edges := BoundaryEdges([]Rect{R(0, 0, 10, 5)})
	if len(edges) != 4 {
		t.Fatalf("rect should have 4 boundary edges, got %d: %v", len(edges), edges)
	}
	var gotSides [4]bool
	for _, e := range edges {
		gotSides[e.Interior] = true
		switch e.Interior {
		case Above: // bottom edge
			if e.P0 != Pt(0, 0) || e.P1 != Pt(10, 0) {
				t.Errorf("bottom edge wrong: %+v", e)
			}
		case Below: // top edge
			if e.P0 != Pt(0, 5) || e.P1 != Pt(10, 5) {
				t.Errorf("top edge wrong: %+v", e)
			}
		case Right: // left edge
			if e.P0 != Pt(0, 0) || e.P1 != Pt(0, 5) {
				t.Errorf("left edge wrong: %+v", e)
			}
		case Left: // right edge
			if e.P0 != Pt(10, 0) || e.P1 != Pt(10, 5) {
				t.Errorf("right edge wrong: %+v", e)
			}
		}
	}
	for s, ok := range gotSides {
		if !ok {
			t.Errorf("missing edge with interior side %v", Side(s))
		}
	}
	if got := PerimeterOf([]Rect{R(0, 0, 10, 5)}); got != 30 {
		t.Errorf("PerimeterOf = %d, want 30", got)
	}
}

func TestBoundaryEdgesMergeAbuttingRects(t *testing.T) {
	// Two abutting rects: internal shared edge must not appear, and the
	// merged boundary equals that of the single big rect.
	rs := []Rect{R(0, 0, 10, 10), R(10, 0, 20, 10)}
	edges := BoundaryEdges(rs)
	if len(edges) != 4 {
		t.Fatalf("merged region should have 4 edges, got %d: %v", len(edges), edges)
	}
	if got := PerimeterOf(rs); got != 60 {
		t.Errorf("PerimeterOf = %d, want 60", got)
	}
}

func TestBoundaryEdgesLShape(t *testing.T) {
	// L: 20x20 minus 10x10 top-right. Perimeter of L = 80.
	l := Subtract([]Rect{R(0, 0, 20, 20)}, []Rect{R(10, 10, 20, 20)})
	if got := PerimeterOf(l); got != 80 {
		t.Errorf("L perimeter = %d, want 80", got)
	}
	edges := BoundaryEdges(l)
	if len(edges) != 6 {
		t.Errorf("L should have 6 maximal edges, got %d: %v", len(edges), edges)
	}
	// The concave step edges must face the right directions: find the
	// horizontal edge at y=10 (x 10..20) - interior must be Below.
	found := false
	for _, e := range edges {
		if e.Horizontal() && e.P0.Y == 10 {
			found = true
			if e.P0.X != 10 || e.P1.X != 20 || e.Interior != Below {
				t.Errorf("step edge wrong: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("step edge at y=10 not found")
	}
}

func TestEdgeGeometryHelpers(t *testing.T) {
	e := Edge{Pt(0, 0), Pt(10, 0), Above}
	if !e.Horizontal() {
		t.Errorf("edge should be horizontal")
	}
	if e.Length() != 10 {
		t.Errorf("Length = %d", e.Length())
	}
	if e.Midpoint() != Pt(5, 0) {
		t.Errorf("Midpoint = %v", e.Midpoint())
	}
	if e.OutwardNormal() != Pt(0, -1) {
		t.Errorf("OutwardNormal = %v", e.OutwardNormal())
	}
	v := Edge{Pt(0, 0), Pt(0, 8), Left}
	if v.Horizontal() {
		t.Errorf("edge should be vertical")
	}
	if v.OutwardNormal() != Pt(1, 0) {
		t.Errorf("vertical OutwardNormal = %v", v.OutwardNormal())
	}
	// How a side prints in a failure message of the tests around this one.
	for s, want := range map[Side]string{Below: "below", Above: "above", Left: "left", Right: "right", Side(9): "?"} {
		if s.String() != want {
			t.Errorf("Side(%d) prints %q, want %q", s, s, want)
		}
	}
}

func TestQuickBoundaryNormalsPointOutward(t *testing.T) {
	// One step outward from an edge midpoint must be outside the
	// region; one step inward must be inside.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		rs := Normalize(randRectSet(rnd, 1+rnd.Intn(5)))
		for _, e := range BoundaryEdges(rs) {
			if e.Length() < 2 {
				continue // midpoint of unit edges sits on a corner
			}
			m := e.Midpoint()
			n := e.OutwardNormal()
			out := m.Add(n)
			in := m.Add(Pt(-n.X, -n.Y))
			// Outward point must not be strictly inside; inward point
			// must be covered (it may sit on the far boundary of a
			// 1nm-thin sliver, so the inclusive test is correct).
			if coversInterior(rs, out) {
				return false
			}
			if !CoversPoint(rs, in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// coversInterior reports whether p is strictly inside some rect.
func coversInterior(rs []Rect, p Point) bool {
	for _, r := range rs {
		if p.X > r.X0 && p.X < r.X1 && p.Y > r.Y0 && p.Y < r.Y1 {
			return true
		}
	}
	return false
}

func TestQuickPerimeterMatchesRectForSingles(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := randRect(rnd)
		return PerimeterOf([]Rect{r}) == r.Perimeter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
