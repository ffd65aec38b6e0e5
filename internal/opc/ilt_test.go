package opc

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
)

func TestILTConverges(t *testing.T) {
	tt := tech.N45()
	drawn := []geom.Rect{geom.R(0, 0, 70, 1200)}
	window := geom.BBoxOf(drawn).Bloat(300)
	res := ILT(drawn, window, tt.Optics)
	if len(res.Mask) == 0 {
		t.Fatal("ILT produced an empty mask")
	}
	h := res.CostHistory
	if len(h) < 2 {
		t.Fatalf("no convergence history")
	}
	if h[len(h)-1] >= h[0] {
		t.Fatalf("cost did not decrease: %v -> %v", h[0], h[len(h)-1])
	}
	if h[len(h)-1] > h[0]*0.5 {
		t.Fatalf("weak convergence: %v -> %v", h[0], h[len(h)-1])
	}
}

func TestILTImprovesEPEOverDrawn(t *testing.T) {
	tt := tech.N45()
	// Line with a line end: the structure inverse OPC shines on.
	drawn := geom.Normalize([]geom.Rect{geom.R(0, 0, 70, 1200)})
	window := geom.BBoxOf(drawn).Bloat(350)

	rms := func(mask []geom.Rect) float64 {
		return litho.SummarizeEPE(simulate(t, mask, window, tt.Optics, litho.Nominal).MeasureEPE(drawn, 120)).RMS
	}
	raw := rms(drawn)
	res := ILT(drawn, window, tt.Optics)
	inv := rms(res.Mask)
	if inv >= raw {
		t.Fatalf("ILT did not improve EPE: %.2f -> %.2f", raw, inv)
	}
	if inv > raw*0.55 {
		t.Fatalf("ILT improvement too weak: %.2f -> %.2f", raw, inv)
	}
}

func TestILTMaskIsMRCClean(t *testing.T) {
	tt := tech.N45()
	drawn := []geom.Rect{geom.R(0, 0, 70, 800), geom.R(210, 0, 280, 800)}
	window := geom.BBoxOf(drawn).Bloat(300)
	res := ILT(drawn, window, tt.Optics)
	m := MRC{MinFeature: iltMinFeature - 2*int64(tt.Optics.GridNM), MinSpace: 0}
	if vs := m.MRCViolations(res.Mask); len(vs) != 0 {
		t.Fatalf("ILT mask has %d sub-minimum features after simplification: %v", len(vs), vs[0])
	}
}

func TestILTRespectsWindowIsolation(t *testing.T) {
	// Geometry far outside the window must not grow mask material in
	// the window.
	tt := tech.N45()
	drawn := []geom.Rect{geom.R(0, 0, 70, 800)}
	window := geom.BBoxOf(drawn).Bloat(300)
	res := ILT(drawn, window, tt.Optics)
	bb := geom.BBoxOf(res.Mask)
	if !window.Bloat(400).ContainsRect(bb) {
		t.Fatalf("ILT mask escaped the solve region: %v", bb)
	}
}

func TestBandAround(t *testing.T) {
	r := []geom.Rect{geom.R(0, 0, 100, 100)}
	b := bandAround(r, 20)
	// The band covers the boundary but not the deep interior or far
	// exterior.
	if !geom.CoversPoint(b, geom.Pt(0, 50)) {
		t.Fatal("band misses the boundary")
	}
	if geom.CoversPoint(b, geom.Pt(50, 50)) {
		t.Fatal("band covers the interior")
	}
	if geom.CoversPoint(b, geom.Pt(200, 200)) {
		t.Fatal("band covers the far exterior")
	}
}
