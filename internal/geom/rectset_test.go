package geom

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func rectsEqual(a, b []Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// disjoint verifies no two rects in the set overlap.
func disjoint(rs []Rect) bool {
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			if rs[i].Overlaps(rs[j]) {
				return false
			}
		}
	}
	return true
}

func TestNormalizeDisjointAndAreaPreserving(t *testing.T) {
	in := []Rect{R(0, 0, 10, 10), R(5, 5, 15, 15), R(20, 0, 30, 5)}
	out := Normalize(in)
	if !disjoint(out) {
		t.Fatalf("Normalize output overlaps: %v", out)
	}
	// Union area = 100 + 100 - 25 + 50 = 225
	if got := AreaOf(out); got != 225 {
		t.Fatalf("AreaOf = %d, want 225", got)
	}
}

func TestNormalizeCoalescesVertically(t *testing.T) {
	// Two stacked identical-width rects should merge into one.
	in := []Rect{R(0, 0, 10, 5), R(0, 5, 10, 10)}
	out := Normalize(in)
	if len(out) != 1 || out[0] != R(0, 0, 10, 10) {
		t.Fatalf("vertical coalescing failed: %v", out)
	}
}

func TestNormalizeDropsEmpty(t *testing.T) {
	in := []Rect{R(0, 0, 0, 10), R(0, 0, 10, 0), {}}
	if out := Normalize(in); len(out) != 0 {
		t.Fatalf("degenerate rects survived Normalize: %v", out)
	}
	if out := Normalize(nil); out != nil {
		t.Fatalf("Normalize(nil) = %v, want nil", out)
	}
}

func TestIntersectSets(t *testing.T) {
	a := []Rect{R(0, 0, 10, 10)}
	b := []Rect{R(5, 5, 15, 15), R(-5, -5, 2, 2)}
	out := Intersect(a, b)
	if got := AreaOf(out); got != 25+4 {
		t.Fatalf("Intersect area = %d, want 29", got)
	}
	if len(Intersect(a, nil)) != 0 {
		t.Fatalf("Intersect with empty set should be empty")
	}
	// The append form writes the same rects after what dst holds, into
	// dst's own array when it has room.
	dst := make([]Rect, 1, 8)
	dst[0] = R(-9, -9, -8, -8)
	got := AppendIntersect(dst, a, b)
	if !slices.Equal(got[1:], out) || got[0] != dst[0] || &got[0] != &dst[0] {
		t.Fatalf("AppendIntersect = %v, want %v after %v in dst's array", got, out, dst)
	}
}

func TestSubtractSets(t *testing.T) {
	a := []Rect{R(0, 0, 10, 10)}
	b := []Rect{R(2, 2, 8, 8)}
	out := Subtract(a, b)
	if got := AreaOf(out); got != 100-36 {
		t.Fatalf("Subtract area = %d, want 64", got)
	}
	// The hole must not be covered.
	if CoversPoint(out, Pt(5, 5)) {
		t.Fatalf("hole interior still covered after Subtract")
	}
	// The rim must be covered.
	if !CoversPoint(out, Pt(1, 1)) {
		t.Fatalf("rim not covered after Subtract")
	}
}

func TestDilateErode(t *testing.T) {
	a := []Rect{R(0, 0, 100, 100)}
	d := Dilate(a, 10)
	if got := AreaOf(d); got != 120*120 {
		t.Fatalf("Dilate area = %d, want %d", got, 120*120)
	}
	e := Erode(a, 10)
	if got := AreaOf(e); got != 80*80 {
		t.Fatalf("Erode area = %d, want %d", got, 80*80)
	}
	// Erode past the midline kills the region.
	if got := Erode(a, 60); len(got) != 0 {
		t.Fatalf("over-erosion should empty the region, got %v", got)
	}
	// Erode then dilate of a big rect restores it.
	back := Dilate(e, 10)
	if !rectsEqual(back, Normalize(a)) {
		t.Fatalf("open of a plain rect should be identity: %v", back)
	}
}

func TestErodeSeparatesNeck(t *testing.T) {
	// Dumbbell: two 100x100 squares joined by a 10-wide neck.
	a := []Rect{
		R(0, 0, 100, 100),
		R(100, 45, 200, 55),
		R(200, 0, 300, 100),
	}
	e := Erode(a, 10)
	// The neck (10 wide) is narrower than 2*10 so it must vanish.
	if CoversPoint(e, Pt(150, 50)) {
		t.Fatalf("neck survived erosion")
	}
	// The squares' cores must survive.
	if !CoversPoint(e, Pt(50, 50)) || !CoversPoint(e, Pt(250, 50)) {
		t.Fatalf("square cores did not survive erosion: %v", e)
	}
}

func TestOpenRemovesNarrowRegions(t *testing.T) {
	// An L with a narrow sliver arm.
	a := []Rect{R(0, 0, 100, 100), R(100, 0, 160, 8)} // 8nm-tall arm
	opened := Open(a, 10)                             // removes anything narrower than 20
	if CoversPoint(opened, Pt(130, 4)) {
		t.Fatalf("narrow arm survived opening")
	}
	if !CoversPoint(opened, Pt(50, 50)) {
		t.Fatalf("body did not survive opening")
	}
}

func TestCloseFillsGaps(t *testing.T) {
	// Two rects with an 8nm gap; closing by 10 must fuse them.
	a := []Rect{R(0, 0, 100, 50), R(108, 0, 200, 50)}
	closed := Close(a, 10)
	if !CoversPoint(closed, Pt(104, 25)) {
		t.Fatalf("gap not filled by closing")
	}
	// Closing must not grow the overall extent.
	bb := BBoxOf(closed)
	if !BBoxOf(Normalize(a)).ContainsRect(bb) {
		t.Fatalf("closing grew the region bbox: %v", bb)
	}
}

func TestBBoxOf(t *testing.T) {
	rs := []Rect{R(5, 5, 10, 10), R(-3, 0, 0, 2)}
	if got := BBoxOf(rs); got != R(-3, 0, 10, 10) {
		t.Fatalf("BBoxOf = %v", got)
	}
	if got := BBoxOf(nil); !got.Empty() {
		t.Fatalf("BBoxOf(nil) should be empty")
	}
}

func randRectSet(rnd *rand.Rand, n int) []Rect {
	rs := make([]Rect, n)
	for i := range rs {
		rs[i] = randRect(rnd)
	}
	return rs
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := randRectSet(rnd, 1+rnd.Intn(8))
		n1 := Normalize(a)
		n2 := Normalize(n1)
		return rectsEqual(n1, n2) && disjoint(n1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickInclusionExclusion(t *testing.T) {
	// |A u B| == |A| + |B| - |A n B|
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := randRectSet(rnd, 1+rnd.Intn(6))
		b := randRectSet(rnd, 1+rnd.Intn(6))
		return AreaOf(Union(a, b)) == AreaOf(a)+AreaOf(b)-AreaOf(Intersect(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubtractPartition(t *testing.T) {
	// A = (A-B) u (A n B), disjointly.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := randRectSet(rnd, 1+rnd.Intn(6))
		b := randRectSet(rnd, 1+rnd.Intn(6))
		diff := Subtract(a, b)
		inter := Intersect(a, b)
		if AreaOf(diff)+AreaOf(inter) != AreaOf(a) {
			return false
		}
		return AreaOf(Intersect(diff, inter)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickErodeDilateDuality(t *testing.T) {
	// Erosion of A = complement of dilation of complement (verified
	// through containment: erode(A,d) dilated by d is contained in A's
	// closing; and erode is anti-extensive, dilate extensive).
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := randRectSet(rnd, 1+rnd.Intn(5))
		d := int64(1 + rnd.Intn(10))
		er := Erode(a, d)
		// anti-extensive: erode(A) subset A
		if AreaOf(Subtract(er, a)) != 0 {
			return false
		}
		// extensive: A subset dilate(A)
		di := Dilate(a, d)
		if AreaOf(Subtract(a, di)) != 0 {
			return false
		}
		// opening subset A
		op := Open(a, d)
		return AreaOf(Subtract(op, a)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickCloseExtensive(t *testing.T) {
	// A subset close(A), and close(close(A)) == close(A) (idempotence).
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := randRectSet(rnd, 1+rnd.Intn(5))
		d := int64(1 + rnd.Intn(10))
		cl := Close(a, d)
		if AreaOf(Subtract(a, cl)) != 0 {
			return false
		}
		return rectsEqual(Close(cl, d), cl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestScale(t *testing.T) {
	rs := []Rect{R(0, 0, 100, 200), R(300, 0, 400, 100)}
	s := Scale(rs, 9, 10)
	if AreaOf(s) != 90*180+90*90 {
		t.Fatalf("scaled area = %d", AreaOf(s))
	}
	if got := BBoxOf(s); got != R(0, 0, 360, 180) {
		t.Fatalf("scaled bbox = %v", got)
	}
	// Identity scale.
	if !rectsEqual(Scale(rs, 1, 1), Normalize(rs)) {
		t.Fatalf("identity scale changed geometry")
	}
	// Zero denominator is clamped.
	if AreaOf(Scale(rs, 1, 0)) != AreaOf(rs) {
		t.Fatalf("den=0 not clamped")
	}
}

// TestIsNormalConsistentWithUnion pins the Normalize fast path to the
// slab-decomposition ground truth: IsNormal must accept exactly the
// sets that Union(rs, nil) maps to themselves. A false accept would
// let Normalize return overlapping or fragmented geometry untouched.
func TestIsNormalConsistentWithUnion(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		rs := randRectSet(rnd, 1+rnd.Intn(6))
		want := rectsEqual(Union(rs, nil), rs)
		if got := IsNormal(rs); got != want {
			t.Fatalf("IsNormal(%v) = %v, want %v", rs, got, want)
		}
		// Canonical output must always take the fast path.
		if norm := Union(rs, nil); !IsNormal(norm) {
			t.Fatalf("IsNormal rejects canonical %v", norm)
		}
	}
	// Directed cases the random sets rarely hit.
	cases := []struct {
		rs   []Rect
		want bool
	}{
		{nil, true},
		{[]Rect{R(0, 0, 10, 10)}, true},
		{[]Rect{R(0, 0, 10, 10), R(0, 0, 10, 10)}, false},                                       // duplicate
		{[]Rect{R(0, 0, 10, 10), R(10, 0, 20, 10)}, false},                                      // x-abutting, same band
		{[]Rect{R(0, 0, 10, 10), R(0, 10, 10, 20)}, false},                                      // y-abutting, identical x-spans
		{[]Rect{R(0, 0, 10, 10), R(0, 10, 12, 20)}, true},                                       // y-abutting, different x-spans
		{[]Rect{R(0, 0, 10, 10), R(12, 0, 20, 10)}, true},                                       // gapped same band
		{[]Rect{R(0, 0, 10, 10), R(0, 5, 30, 15)}, false},                                       // y-overlapping bands
		{[]Rect{R(12, 0, 20, 10), R(0, 0, 10, 10)}, false},                                      // unsorted
		{[]Rect{R(0, 0, 0, 10)}, false},                                                         // empty rect
		{[]Rect{R(0, 0, 10, 10), R(20, 0, 30, 10), R(0, 10, 10, 20), R(20, 10, 30, 20)}, false}, // both bands coalescible
		{[]Rect{R(0, 0, 10, 10), R(20, 0, 30, 10), R(0, 10, 10, 20), R(20, 10, 31, 20)}, true},  // second band differs
	}
	for _, c := range cases {
		if got := IsNormal(c.rs); got != c.want {
			t.Errorf("IsNormal(%v) = %v, want %v", c.rs, got, c.want)
		}
	}
}
