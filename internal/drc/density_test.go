package drc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// A Detail shared through DensityRenderer is the string a fresh
// Sprintf gives, at the values where %.3f rounding decides a digit, one
// ULP either side of them, and for both zeros (equal as numbers,
// different as text) — on the first call for a value and on the
// replayed ones, whatever window they are for.
func TestDensityRendererSharesExactDetail(t *testing.T) {
	rule := DensityWindow{Layer: tech.Metal2, Window: 3000, Min: 0.2, Max: 0.8}
	var vals []float64
	for _, d := range []float64{0.0005, 0.2995, 0.9995, 0, 1} {
		vals = append(vals, math.Nextafter(d, -1), d, math.Nextafter(d, 2))
	}
	vals = append(vals, math.Copysign(0, -1), 0.0015, 0.0025, 0.1234565, 0.8004999999999999)
	render := rule.Renderer()
	for pass := 0; pass < 3; pass++ {
		for i, d := range vals {
			w := geom.R(int64(pass)*1500, int64(i)*1500, int64(pass)*1500+3000, int64(i)*1500+3000)
			got := render.Violation(w, d)
			if want := fmt.Sprintf("density %.3f outside [%.2f, %.2f]", d, rule.Min, rule.Max); got.Detail != want {
				t.Errorf("pass %d, d = %v (%#x): Detail %q, want %q", pass, d, math.Float64bits(d), got.Detail, want)
			}
			if want := rule.Violation(w, d); got != want {
				t.Errorf("pass %d, d = %v: %+v, want %+v", pass, d, got, want)
			}
		}
	}
	if n := len(render.seen); n != len(vals) {
		t.Errorf("renderer formatted %d values for %d distinct bit patterns", n, len(vals))
	}
}
