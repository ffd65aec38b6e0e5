package opc

import (
	"context"
	"errors"
	"slices"
	"strings"
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
	nomRes := modelBased(t, drawn, window, tt.Optics, mo)
	rmsAt := func(mask []geom.Rect, cond litho.Condition) float64 {
		return litho.SummarizeEPE(simulate(t, mask, window, tt.Optics, cond).MeasureEPE(drawn, 120)).RMS
	}
	nomWorst := rmsAt(nomRes.Mask, corners[1].Cond)

	pw, err := ProcessWindowOPC(context.Background(), drawn, window, handle(window, tt.Optics, 80), mo, corners)
	if err != nil {
		t.Fatal(err)
	}
	pwWorst := rmsAt(pw.Mask, corners[1].Cond)

	if pwWorst >= nomWorst {
		t.Fatalf("PW-OPC did not improve the defocus corner: %.2f vs %.2f", pwWorst, nomWorst)
	}
	// The nominal corner may give a little back but must stay sane.
	pwNom := rmsAt(pw.Mask, litho.Nominal)
	if pwNom > 3*rmsAt(nomRes.Mask, litho.Nominal)+3 {
		t.Fatalf("PW-OPC sacrificed too much nominal fidelity: %.2f", pwNom)
	}
	// History bookkeeping: iterations+1 entries, and the image is the
	// first corner's.
	if len(pw.RMSHistory) != mo.Iterations+1 {
		t.Fatalf("history length = %d", len(pw.RMSHistory))
	}
	if pw.Image == nil || pw.Image.Cond != corners[0].Cond {
		t.Fatalf("result image %v, want the first corner's", pw.Image)
	}
}

func TestProcessWindowOPCDefaultsCorners(t *testing.T) {
	tt := tech.N45()
	drawn := []geom.Rect{geom.R(0, 0, 90, 800)}
	window := geom.BBoxOf(drawn).Bloat(300)
	mo := DefaultModelOpts()
	mo.Iterations = 2
	pw, err := ProcessWindowOPC(context.Background(), drawn, window, handle(window, tt.Optics, 80), mo, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ProcessWindowOPC(context.Background(), drawn, window, handle(window, tt.Optics, 80), mo, StandardPWCorners(80))
	if err != nil {
		t.Fatal(err)
	}
	if len(pw.Mask) == 0 {
		t.Fatal("empty mask")
	}
	if !slices.Equal(pw.RMSHistory, want.RMSHistory) {
		t.Fatalf("no corners: RMS history %v, StandardPWCorners(80) %v", pw.RMSHistory, want.RMSHistory)
	}
}

// TestProcessWindowOPCReportsSimulationErrors: optics the kernel
// rejects are an error, as they are from ModelBased, not an image the
// loop dereferences; so is a corner beyond the handle's defocus budget.
func TestProcessWindowOPCReportsSimulationErrors(t *testing.T) {
	tt := tech.N45()
	tt.Optics.Sigmas[0] = 0
	drawn := []geom.Rect{geom.R(0, 0, 90, 800)}
	window := geom.BBoxOf(drawn).Bloat(300)
	_, err := ProcessWindowOPC(context.Background(), drawn, window, handle(window, tt.Optics, 80), DefaultModelOpts(), nil)
	if err == nil || !strings.Contains(err.Error(), "non-positive sigma") {
		t.Fatalf("err = %v, want the kernel's non-positive sigma error", err)
	}
	res, err := ProcessWindowOPC(context.Background(), drawn, window, handle(window, tech.N45().Optics, 40), DefaultModelOpts(), nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds RasterMask budget") || res.Image != nil {
		t.Fatalf("80 nm corner on a 40 nm handle: err = %v, image %v; want the renderer's budget error and no image", err, res.Image != nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProcessWindowOPC(ctx, drawn, window, handle(window, tech.N45().Optics, 80), DefaultModelOpts(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err = %v, want context.Canceled", err)
	}
}
