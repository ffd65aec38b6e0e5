package pattern

import (
	"testing"

	"repro/internal/geom"
)

// radiusFixture builds a layer where hotspot context only becomes
// distinctive at a larger radius: hot anchors sit at line-end tips
// that have a *second* line end nearby (facing tip), clean anchors at
// isolated line-end tips. Within a small radius both look like a bare
// tip; a radius large enough to see the facing tip separates them.
func radiusFixture() (rs []geom.Rect, hot, clean []geom.Point) {
	// Facing tip pairs (hot): gap 260 between tips.
	for i := int64(0); i < 4; i++ {
		x := i * 3000
		rs = append(rs,
			geom.R(x, 0, x+70, 1000),
			geom.R(x, 1260, x+70, 2260),
		)
		hot = append(hot, geom.Pt(x, 1000))
	}
	// Isolated tips (clean).
	for i := int64(0); i < 4; i++ {
		x := i*3000 + 15000
		rs = append(rs, geom.R(x, 0, x+70, 1000))
		clean = append(clean, geom.Pt(x, 1000))
	}
	return
}

func TestOptimizeRadiusSeparates(t *testing.T) {
	rs, hot, clean := radiusFixture()
	radii := []int64{100, 200, 400}
	evals, best := OptimizeRadius(rs, hot, clean, radii)
	if len(evals) != 3 {
		t.Fatalf("eval count = %d", len(evals))
	}
	// Radius 100: window [tip-100, tip+100] sees only the bare tip on
	// both sides -> full confusion.
	if evals[0].FalseRate != 1 {
		t.Fatalf("small radius should confuse: %+v", evals[0])
	}
	// Radius 400 sees the facing tip -> separation.
	if evals[2].FalseRate != 0 {
		t.Fatalf("large radius should separate: %+v", evals[2])
	}
	if best != 400 {
		t.Fatalf("best radius = %d, want 400", best)
	}
}

func TestOptimizeRadiusPrefersSmallestAdequate(t *testing.T) {
	rs, hot, clean := radiusFixture()
	// 300 already sees the 260 gap's far tip; 400 adds nothing; the
	// optimizer must prefer 300.
	_, best := OptimizeRadius(rs, hot, clean, []int64{300, 400})
	if best != 300 {
		t.Fatalf("best radius = %d, want 300", best)
	}
	// Degenerate inputs.
	if _, b := OptimizeRadius(rs, hot, clean, nil); b != 0 {
		t.Fatalf("empty radii should return 0")
	}
}
