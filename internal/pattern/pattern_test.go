package pattern

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// banded is the banded form of the region rs covers.
func banded(rs []geom.Rect) *geom.Banded { return geom.BandedOf(geom.Normalize(rs)) }

func TestExtractAtClipsAndLocalizes(t *testing.T) {
	rs := banded([]geom.Rect{geom.R(100, 100, 300, 140)})
	p := ExtractAt(rs, geom.Pt(200, 120), 50)
	if len(p.Rects) != 1 {
		t.Fatalf("rect count = %d", len(p.Rects))
	}
	// Window [150,70]..[250,170]; clip -> [150,100,250,140];
	// local coords -> [0,30,100,70].
	if p.Rects[0] != geom.R(0, 30, 100, 70) {
		t.Fatalf("local rect = %v", p.Rects[0])
	}
	// Anchor outside all geometry -> empty pattern.
	if !ExtractAt(rs, geom.Pt(5000, 5000), 50).Empty() {
		t.Fatalf("far pattern not empty")
	}
}

// extractDirect is what ExtractAt returns, by a sweep of the whole
// layer: the layer intersected with the window, moved to window-local
// coordinates.
func extractDirect(rs []geom.Rect, anchor geom.Point, radius int64) []geom.Rect {
	win := geom.R(anchor.X-radius, anchor.Y-radius, anchor.X+radius, anchor.Y+radius)
	var local []geom.Rect
	for _, r := range geom.Intersect(rs, []geom.Rect{win}) {
		local = append(local, r.Translate(geom.Pt(radius-anchor.X, radius-anchor.Y)))
	}
	return local
}

// ExtractAt on the banded layer is the direct extraction rect for rect,
// with no re-normalization: at random anchors, at every corner, and at
// radius 0 and 1.
func TestExtractIndexedMatchesDirect(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	var rs []geom.Rect
	for i := 0; i < 60; i++ {
		x, y := rnd.Int63n(4000), rnd.Int63n(4000)
		rs = append(rs, geom.R(x, y, x+50+rnd.Int63n(300), y+50+rnd.Int63n(300)))
	}
	norm := geom.Normalize(rs)
	l := geom.BandedOf(norm)
	anchors := Anchors(norm)
	for i := 0; i < 30; i++ {
		anchors = append(anchors, geom.Pt(rnd.Int63n(4000), rnd.Int63n(4000)))
	}
	for _, a := range anchors {
		for _, radius := range []int64{0, 1, 200} {
			got, want := ExtractAt(l, a, radius).Rects, extractDirect(norm, a, radius)
			if !slices.Equal(got, want) {
				t.Fatalf("ExtractAt(%v, %d) = %v, direct %v", a, radius, got, want)
			}
		}
	}
}

func TestAnchorsAreCorners(t *testing.T) {
	rs := []geom.Rect{geom.R(0, 0, 100, 100)}
	as := Anchors(rs)
	if len(as) != 4 {
		t.Fatalf("anchor count = %d, want 4 corners", len(as))
	}
	want := map[geom.Point]bool{
		{X: 0, Y: 0}: true, {X: 100, Y: 0}: true,
		{X: 0, Y: 100}: true, {X: 100, Y: 100}: true,
	}
	for _, a := range as {
		if !want[a] {
			t.Errorf("unexpected anchor %v", a)
		}
	}
	// L-shape has 6 corners.
	l := geom.Subtract([]geom.Rect{geom.R(0, 0, 200, 200)}, []geom.Rect{geom.R(100, 100, 200, 200)})
	if got := len(Anchors(l)); got != 6 {
		t.Fatalf("L anchors = %d, want 6", got)
	}
}

func TestHashDiscriminatesAndRepeats(t *testing.T) {
	a := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 50, 200)}}
	b := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 50, 200)}}
	c := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 60, 200)}}
	if a.CanonHash() != b.CanonHash() {
		t.Fatalf("identical patterns hash differently")
	}
	if a.CanonHash() == c.CanonHash() {
		t.Fatalf("different patterns collide")
	}
	// Normalization-insensitive: split rect same region.
	d := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 50, 100), geom.R(0, 100, 50, 200)}}
	if a.CanonHash() != d.CanonHash() {
		t.Fatalf("hash sensitive to rect fragmentation")
	}
}

func TestCanonHashOrientationInvariant(t *testing.T) {
	// An L in the window, then random patterns of one to eight rects,
	// some reaching past the window, each under all eight orientations.
	pats := []Pattern{{Radius: 100, Rects: []geom.Rect{
		geom.R(0, 0, 150, 40), geom.R(0, 40, 40, 150),
	}}}
	rnd := rand.New(rand.NewSource(40))
	for i := 0; i < 100; i++ {
		var rs []geom.Rect
		for j, n := 0, 1+rnd.Intn(8); j < n; j++ {
			x, y := rnd.Int63n(240)-20, rnd.Int63n(240)-20
			rs = append(rs, geom.R(x, y, x+1+rnd.Int63n(80), y+1+rnd.Int63n(80)))
		}
		pats = append(pats, Pattern{Radius: 100, Rects: rs})
	}
	for _, base := range pats {
		for o := geom.R0; o <= geom.MY90; o++ {
			rot := Pattern{Radius: 100, Rects: base.orientedRects(o)}
			if rot.CanonHash() != base.CanonHash() {
				t.Fatalf("orientation %v changes CanonHash of %v", o, base.Rects)
			}
		}
	}
	// A genuinely different pattern must not collide.
	other := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 200, 200)}}
	if other.CanonHash() == pats[0].CanonHash() {
		t.Fatalf("distinct patterns share CanonHash")
	}
}

func TestQuickCanonHashInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		var rs []geom.Rect
		n := 1 + rnd.Intn(4)
		for i := 0; i < n; i++ {
			x, y := rnd.Int63n(150), rnd.Int63n(150)
			rs = append(rs, geom.R(x, y, x+10+rnd.Int63n(50), y+10+rnd.Int63n(50)))
		}
		p := Pattern{Radius: 100, Rects: geom.Normalize(rs)}
		o := geom.Orient(rnd.Intn(8))
		q := Pattern{Radius: 100, Rects: p.orientedRects(o)}
		return p.CanonHash() == q.CanonHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestJaccard(t *testing.T) {
	a := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 100, 100)}}
	b := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(50, 0, 150, 100)}}
	// overlap 5000, union 15000.
	if got := Jaccard(a, b); got < 0.333 || got > 0.334 {
		t.Fatalf("Jaccard = %v", got)
	}
	if Jaccard(a, a) != 1 {
		t.Fatalf("self similarity != 1")
	}
	empty := Pattern{Radius: 100}
	if Jaccard(empty, empty) != 1 {
		t.Fatalf("empty-empty similarity != 1")
	}
	if Jaccard(a, empty) != 0 {
		t.Fatalf("a-empty similarity != 0")
	}
	diffR := Pattern{Radius: 50, Rects: a.Rects}
	if Jaccard(a, diffR) != 0 {
		t.Fatalf("different radii must yield 0")
	}
}

func TestJaccardOrientedFindsRotation(t *testing.T) {
	// A horizontal bar vs its vertical rotation: plain Jaccard is low,
	// oriented Jaccard is 1.
	h := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 80, 200, 120)}}
	v := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(80, 0, 120, 200)}}
	if s := Jaccard(h, v); s > 0.5 {
		t.Fatalf("plain Jaccard unexpectedly high: %v", s)
	}
	if s := JaccardOriented(h, v); s != 1 {
		t.Fatalf("oriented Jaccard = %v, want 1", s)
	}
}

func TestCatalogCountsAndCoverage(t *testing.T) {
	cat := NewCatalog(100)
	// Ten instances of pattern A, one of pattern B.
	a := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 100, 40)}}
	b := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 40, 40)}}
	for i := 0; i < 10; i++ {
		cat.Add(a, geom.Pt(int64(i), 0))
	}
	cat.Add(b, geom.Pt(999, 999))
	if cat.Total() != 11 || cat.NumClasses() != 2 {
		t.Fatalf("total=%d classes=%d", cat.Total(), cat.NumClasses())
	}
	cls := cat.Classes()
	if cls[0].Count != 10 || cls[1].Count != 1 {
		t.Fatalf("class order wrong: %v", cls)
	}
	if got := cat.Coverage(1); got < 0.9 || got > 0.91 {
		t.Fatalf("Coverage(1) = %v", got)
	}
	if got := cat.Coverage(99); got != 1 {
		t.Fatalf("Coverage(all) = %v", got)
	}
	if got := cat.ClassesFor(0.9); got != 1 {
		t.Fatalf("ClassesFor(0.9) = %d", got)
	}
	if got := cat.ClassesFor(1.0); got != 2 {
		t.Fatalf("ClassesFor(1.0) = %d", got)
	}
	// Example cap.
	if len(cls[0].Examples) > maxExamples {
		t.Fatalf("examples uncapped")
	}
}

func TestCatalogAddLayer(t *testing.T) {
	// A line/space array: interior corners all share classes.
	var rs []geom.Rect
	for i := int64(0); i < 8; i++ {
		rs = append(rs, geom.R(i*140, 0, i*140+70, 2000))
	}
	cat := NewCatalog(200)
	n := cat.AddLayer(rs)
	if n != len(Anchors(geom.Normalize(rs))) {
		t.Fatalf("anchor count mismatch")
	}
	if cat.Total() != n {
		t.Fatalf("total != anchors")
	}
	// Strong regularity: far fewer classes than instances.
	if cat.NumClasses() >= cat.Total()/2 {
		t.Fatalf("regular array should compress: %d classes / %d instances",
			cat.NumClasses(), cat.Total())
	}
}

func TestKLDivergence(t *testing.T) {
	a := NewCatalog(100)
	b := NewCatalog(100)
	p1 := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 100, 40)}}
	p2 := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 40, 40)}}
	for i := 0; i < 50; i++ {
		a.Add(p1, geom.Pt(0, 0))
		b.Add(p1, geom.Pt(0, 0))
	}
	// Identical catalogs: divergence ~ 0.
	if d := a.KLDivergence(b); d > 1e-9 {
		t.Fatalf("identical catalogs diverge: %v", d)
	}
	// Skew b.
	for i := 0; i < 50; i++ {
		b.Add(p2, geom.Pt(0, 0))
	}
	d1 := a.KLDivergence(b)
	if d1 <= 0 {
		t.Fatalf("skewed catalogs should diverge: %v", d1)
	}
	// KL is asymmetric but both directions must be finite and positive.
	d2 := b.KLDivergence(a)
	if d2 <= 0 {
		t.Fatalf("reverse divergence = %v", d2)
	}
}

func TestOutliers(t *testing.T) {
	ref := NewCatalog(100)
	des := NewCatalog(100)
	common := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 100, 40)}}
	rare := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 40, 40)}}
	for i := 0; i < 100; i++ {
		ref.Add(common, geom.Pt(0, 0))
		des.Add(common, geom.Pt(0, 0))
	}
	ref.Add(rare, geom.Pt(0, 0))
	for i := 0; i < 40; i++ {
		des.Add(rare, geom.Pt(0, 0))
	}
	out := des.Outliers(ref, 10, 5)
	if len(out) != 1 || out[0].ID != rare.CanonHash() {
		t.Fatalf("outliers = %v", out)
	}
}

func TestClusterer(t *testing.T) {
	cl := NewClusterer(0.8, false)
	a := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 100, 100)}}
	aish := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 0, 100, 95)}} // sim 0.95
	b := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(150, 150, 200, 200)}}
	i0 := cl.Add(a, geom.Pt(0, 0))
	i1 := cl.Add(aish, geom.Pt(1, 1))
	i2 := cl.Add(b, geom.Pt(2, 2))
	if i0 != i1 {
		t.Fatalf("similar patterns split: %d vs %d", i0, i1)
	}
	if i2 == i0 {
		t.Fatalf("dissimilar patterns merged")
	}
	if cl.Len() != 2 {
		t.Fatalf("cluster count = %d", cl.Len())
	}
	cs := cl.Clusters()
	if cs[0].Count != 2 || cs[1].Count != 1 {
		t.Fatalf("cluster sizes wrong: %+v", cs)
	}
}

func TestClustererOriented(t *testing.T) {
	cl := NewClusterer(0.9, true)
	h := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(0, 80, 200, 120)}}
	v := Pattern{Radius: 100, Rects: []geom.Rect{geom.R(80, 0, 120, 200)}}
	cl.Add(h, geom.Pt(0, 0))
	cl.Add(v, geom.Pt(1, 1))
	if cl.Len() != 1 {
		t.Fatalf("rotated hotspots should cluster together: %d clusters", cl.Len())
	}
}

func TestMatcherExact(t *testing.T) {
	m := NewMatcher(150)
	// Library: a line-end-gap pattern anchored at a line-tip corner
	// (scan anchors are geometry corners, so library entries must be
	// corner-anchored too).
	lineEnd := ExtractAt(banded([]geom.Rect{geom.R(0, 0, 70, 500), geom.R(0, 600, 70, 1100)}), geom.Pt(0, 500), 150)
	m.AddEntry(&LibEntry{Name: "line-end", P: lineEnd})
	if m.Len() != 1 {
		t.Fatalf("library size = %d", m.Len())
	}

	// Target layout: the same line-end structure somewhere else, and a
	// near miss, whose gap is 10 nm wider, which an exact match must not
	// take.
	target := []geom.Rect{geom.R(1000, 1000, 1070, 1500), geom.R(1000, 1600, 1070, 2100)}
	matches := m.ScanLayer(target)
	found := false
	for _, mt := range matches {
		if mt.Entry.Name == "line-end" && mt.At == geom.Pt(1000, 1500) {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact pattern not found: %v", matches)
	}
	nearMiss := []geom.Rect{geom.R(0, 0, 70, 500), geom.R(0, 610, 70, 1110)}
	if got := m.ScanLayer(nearMiss); len(got) != 0 {
		t.Fatalf("a 10 nm wider gap matched exactly: %v", got)
	}
}

func TestMatcherNoFalsePositiveOnClean(t *testing.T) {
	m := NewMatcher(150)
	lineEnd := ExtractAt(banded([]geom.Rect{geom.R(0, 0, 70, 500), geom.R(0, 600, 70, 1100)}), geom.Pt(0, 500), 150)
	m.AddEntry(&LibEntry{Name: "line-end", P: lineEnd})
	// A plain wide plate has no line-end construct.
	clean := []geom.Rect{geom.R(0, 0, 5000, 5000)}
	if got := m.ScanLayer(clean); len(got) != 0 {
		t.Fatalf("false positives on clean layout: %v", got)
	}
}
