package dfm

import (
	"testing"

	"repro/internal/layout"
)

func TestEvalDPT(t *testing.T) {
	o := evaluated(t, "dpt-decomposition", 5, layout.BlockOpts{Rows: 2, RowWidth: 8000, Nets: 12, MaxFan: 3})
	p, _ := o.Primary()
	// Stitching must not increase conflicts.
	if p.After > p.Before {
		t.Fatalf("stitching increased conflicts: %+v", p)
	}
	// Composite score must not degrade.
	for _, m := range o.Metrics {
		if m.Name == "composite score" && m.After < m.Before-1e-9 {
			t.Fatalf("stitching degraded the composite: %+v", m)
		}
	}
	if o.CostFrac < 0 {
		t.Fatalf("negative cost: %v", o.CostFrac)
	}
}
