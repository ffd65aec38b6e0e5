package opc

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
)

func TestProcessWindowOPCImprovesWorstCorner(t *testing.T) {
	tt := tech.N45()
	drawn := geom.Normalize([]geom.Rect{geom.R(0, 0, 90, 1500)})
	window := geom.BBoxOf(drawn).Bloat(400)
	mo := DefaultModelOpts()
	corners := StandardPWCorners(80)

	// Nominal-only OPC, evaluated at both corners.
	nomRes := ModelBased(drawn, window, tt.Optics, mo)
	rmsAt := func(mask []geom.Rect, cond litho.Condition) float64 {
		img := litho.Simulate(mask, window, tt.Optics, cond)
		return litho.SummarizeEPE(img.MeasureEPE(drawn, 120)).RMS
	}
	nomWorst := rmsAt(nomRes.Mask, corners[1].Cond)

	pw := ProcessWindowOPC(drawn, window, tt.Optics, mo, corners)
	pwWorst := rmsAt(pw.Mask, corners[1].Cond)

	if pwWorst >= nomWorst {
		t.Fatalf("PW-OPC did not improve the defocus corner: %.2f vs %.2f", pwWorst, nomWorst)
	}
	// The nominal corner may give a little back but must stay sane.
	pwNom := rmsAt(pw.Mask, litho.Nominal)
	if pwNom > 3*rmsAt(nomRes.Mask, litho.Nominal)+3 {
		t.Fatalf("PW-OPC sacrificed too much nominal fidelity: %.2f", pwNom)
	}
	// History bookkeeping: iterations+1 entries, one RMS per corner.
	if len(pw.RMSByCorner) != mo.Iterations+1 {
		t.Fatalf("history length = %d", len(pw.RMSByCorner))
	}
	for _, row := range pw.RMSByCorner {
		if len(row) != len(corners) {
			t.Fatalf("corner count in history = %d", len(row))
		}
	}
}

func TestProcessWindowOPCDefaultsCorners(t *testing.T) {
	tt := tech.N45()
	drawn := []geom.Rect{geom.R(0, 0, 90, 800)}
	window := geom.BBoxOf(drawn).Bloat(300)
	mo := DefaultModelOpts()
	mo.Iterations = 2
	pw := ProcessWindowOPC(drawn, window, tt.Optics, mo, nil)
	if len(pw.Mask) == 0 {
		t.Fatal("empty mask")
	}
	if len(pw.RMSByCorner[0]) != 2 {
		t.Fatalf("default corners = %d, want 2", len(pw.RMSByCorner[0]))
	}
}
