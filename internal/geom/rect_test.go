package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRCanonicalizes(t *testing.T) {
	r := R(10, 20, 5, 2)
	if r != (Rect{5, 2, 10, 20}) {
		t.Fatalf("R did not canonicalize: %v", r)
	}
	if !r.Canonical() {
		t.Fatalf("canonical rect reported non-canonical")
	}
}

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 10, 4)
	if got := r.Width(); got != 10 {
		t.Errorf("Width = %d, want 10", got)
	}
	if got := r.Height(); got != 4 {
		t.Errorf("Height = %d, want 4", got)
	}
	if got := r.Area(); got != 40 {
		t.Errorf("Area = %d, want 40", got)
	}
	if got := r.Perimeter(); got != 28 {
		t.Errorf("Perimeter = %d, want 28", got)
	}
	if got := r.MinDim(); got != 4 {
		t.Errorf("MinDim = %d, want 4", got)
	}
	if got := r.Center(); got != Pt(5, 2) {
		t.Errorf("Center = %v, want (5,2)", got)
	}
}

func TestEmptyRect(t *testing.T) {
	cases := []struct {
		r     Rect
		empty bool
	}{
		{R(0, 0, 0, 0), true},
		{R(0, 0, 5, 0), true},
		{R(0, 0, 0, 5), true},
		{R(0, 0, 1, 1), false},
		{Rect{5, 5, 1, 1}, true}, // non-canonical
	}
	for _, c := range cases {
		if got := c.r.Empty(); got != c.empty {
			t.Errorf("%v.Empty() = %v, want %v", c.r, got, c.empty)
		}
	}
	if R(0, 0, 5, 0).Area() != 0 {
		t.Errorf("degenerate rect has nonzero area")
	}
}

func TestOverlapsAndTouches(t *testing.T) {
	a := R(0, 0, 10, 10)
	cases := []struct {
		b        Rect
		overlaps bool
	}{
		{R(5, 5, 15, 15), true},
		{R(10, 0, 20, 10), false},  // share an edge
		{R(10, 10, 20, 20), false}, // share a corner
		{R(11, 11, 20, 20), false},
		{R(2, 2, 8, 8), true}, // contained
		{a, true},             // identical
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.overlaps {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, c.b, got, c.overlaps)
		}
	}
}

func TestIntersectUnion(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	if got := a.Intersect(b); got != R(5, 5, 10, 10) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); got != R(0, 0, 15, 15) {
		t.Errorf("Union = %v", got)
	}
	// Union with empty accumulator.
	var acc Rect
	acc = acc.Union(a)
	if acc != a {
		t.Errorf("Union from empty = %v, want %v", acc, a)
	}
	// Intersect of disjoint rects is empty.
	if got := a.Intersect(R(20, 20, 30, 30)); !got.Empty() {
		t.Errorf("disjoint Intersect not empty: %v", got)
	}
}

func TestBloatAndTranslate(t *testing.T) {
	r := R(10, 10, 20, 20)
	if got := r.Bloat(5); got != R(5, 5, 25, 25) {
		t.Errorf("Bloat(5) = %v", got)
	}
	if got := r.Bloat(-5); !got.Empty() {
		t.Errorf("Bloat(-5) should be empty, got %v", got)
	}
	if got := r.BloatXY(1, 2); got != R(9, 8, 21, 22) {
		t.Errorf("BloatXY = %v", got)
	}
	if got := r.Translate(Pt(-10, 5)); got != R(0, 15, 10, 25) {
		t.Errorf("Translate = %v", got)
	}
}

func TestDistanceAndGaps(t *testing.T) {
	a := R(0, 0, 10, 10)
	cases := []struct {
		b          Rect
		dist       int64
		gapX, gapY int64
	}{
		{R(15, 0, 20, 10), 5, 5, 0},  // pure horizontal gap
		{R(0, 13, 10, 20), 3, 0, 3},  // pure vertical gap
		{R(14, 17, 20, 20), 7, 4, 7}, // diagonal: max of per-axis gaps
		{R(5, 5, 15, 15), 0, 0, 0},   // overlap
		{R(10, 10, 20, 20), 0, 0, 0}, // corner touch
	}
	for _, c := range cases {
		if got := a.Distance(c.b); got != c.dist {
			t.Errorf("Distance(%v) = %d, want %d", c.b, got, c.dist)
		}
		if got := a.GapX(c.b); got != c.gapX {
			t.Errorf("GapX(%v) = %d, want %d", c.b, got, c.gapX)
		}
		if got := a.GapY(c.b); got != c.gapY {
			t.Errorf("GapY(%v) = %d, want %d", c.b, got, c.gapY)
		}
	}
}

func TestContains(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 10)) || !r.Contains(Pt(5, 5)) {
		t.Errorf("boundary/interior points should be contained")
	}
	if r.Contains(Pt(11, 5)) || r.Contains(Pt(5, -1)) {
		t.Errorf("outside points should not be contained")
	}
	if !r.ContainsRect(R(2, 2, 8, 8)) || !r.ContainsRect(r) {
		t.Errorf("ContainsRect failed for contained rects")
	}
	if r.ContainsRect(R(2, 2, 11, 8)) {
		t.Errorf("ContainsRect accepted a protruding rect")
	}
}

// randRect generates a small random canonical rectangle.
func randRect(rnd *rand.Rand) Rect {
	x := rnd.Int63n(200) - 100
	y := rnd.Int63n(200) - 100
	return R(x, y, x+1+rnd.Int63n(50), y+1+rnd.Int63n(50))
}

func TestQuickIntersectSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a, b := randRect(rnd), randRect(rnd)
		i1, i2 := a.Intersect(b), b.Intersect(a)
		if i1.Empty() && i2.Empty() {
			return true
		}
		return i1 == i2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectContained(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a, b := randRect(rnd), randRect(rnd)
		i := a.Intersect(b)
		if i.Empty() {
			return true
		}
		return a.ContainsRect(i) && b.ContainsRect(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a, b := randRect(rnd), randRect(rnd)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceZeroIffOverlapOrTouch(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a, b := randRect(rnd), randRect(rnd)
		d := a.Distance(b)
		// On the integer grid a 1 nm bloat turns touching into overlapping.
		meets := a.Bloat(1).Overlaps(b)
		return (d == 0) == meets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointOps(t *testing.T) {
	p, q := Pt(3, 4), Pt(-1, 2)
	if p.Add(q) != Pt(2, 6) {
		t.Errorf("Add failed")
	}
	if p.ChebyshevDist(q) != 4 {
		t.Errorf("ChebyshevDist = %d, want 4", p.ChebyshevDist(q))
	}
	if !q.Less(p) || p.Less(q) {
		t.Errorf("Less ordering wrong")
	}
	if Pt(0, 1).Less(Pt(0, 1)) {
		t.Errorf("Less should be irreflexive")
	}
}
