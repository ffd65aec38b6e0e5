package metrology

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
)

// simulate runs litho.Simulate at nominal to completion.
func simulate(t *testing.T, mask []geom.Rect, window geom.Rect, o tech.Optics) *litho.Image {
	t.Helper()
	img, err := litho.Simulate(context.Background(), mask, window, o, litho.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestGeneratePlanLineSpace(t *testing.T) {
	tt := tech.N45()
	cell := layout.LineSpace(tt, tech.Metal1, 70, 70, 2000, 5)
	rs := cell.LayerRects(tech.Metal1)
	plan := GeneratePlan(rs, tech.Metal1)

	var lines, spaces, ends int
	for _, s := range plan.Sites {
		switch s.Kind {
		case LineWidth:
			lines++
			if s.Drawn != 70 || !s.Horizontal {
				t.Fatalf("line site wrong: %+v", s)
			}
		case SpaceWidth:
			spaces++
			if s.Drawn != 70 {
				t.Fatalf("space site wrong: %+v", s)
			}
		case LineEnd:
			ends++
		}
	}
	if lines != 5 {
		t.Fatalf("line sites = %d, want 5", lines)
	}
	if spaces != 4 {
		t.Fatalf("space sites = %d, want 4", spaces)
	}
	if ends != 10 { // two tips per line
		t.Fatalf("line-end sites = %d, want 10", ends)
	}
	if !strings.Contains(plan.String(), "5 line") {
		t.Fatalf("plan String = %q", plan.String())
	}
}

func TestGeneratePlanSkipsWideGapsAndTinyFeatures(t *testing.T) {
	rs := []geom.Rect{
		geom.R(0, 0, 70, 1000),
		geom.R(1000, 0, 1070, 1000), // 930 gap: beyond SpaceLimit
		geom.R(2000, 0, 2010, 1000), // 10-wide sliver: below MinFeature
	}
	plan := GeneratePlan(rs, tech.Metal1)
	for _, s := range plan.Sites {
		if s.Kind == SpaceWidth {
			t.Fatalf("wide gap measured: %+v", s)
		}
		if s.Kind == LineWidth && s.Drawn == 10 {
			t.Fatalf("sliver measured: %+v", s)
		}
	}
}

func TestGeneratePlanDeterministicAndCapped(t *testing.T) {
	tt := tech.N45()
	cell := layout.LineSpace(tt, tech.Metal1, 70, 70, 2000, 8)
	rs := cell.LayerRects(tech.Metal1)
	a := GeneratePlan(rs, tech.Metal1)
	b := GeneratePlan(rs, tech.Metal1)
	if len(a.Sites) != len(b.Sites) {
		t.Fatal("plan not deterministic")
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs", i)
		}
	}
	// 200 lines make 200 widths, 199 spaces and 400 tips: past the cap.
	many := layout.LineSpace(tt, tech.Metal1, 70, 70, 2000, 200)
	capped := GeneratePlan(many.LayerRects(tech.Metal1), tech.Metal1)
	if len(capped.Sites) != maxSites {
		t.Fatalf("cap not applied: %d", len(capped.Sites))
	}
	for i, s := range capped.Sites {
		if s.ID != i {
			t.Fatalf("IDs not renumbered")
		}
	}
}

func TestExecuteMeasuresCDs(t *testing.T) {
	tt := tech.N45()
	cell := layout.LineSpace(tt, tech.Metal1, 100, 140, 3000, 5)
	rs := cell.LayerRects(tech.Metal1)
	plan := GeneratePlan(rs, tech.Metal1)
	window := geom.BBoxOf(rs).Bloat(300)
	img := simulate(t, rs, window, tt.Optics)

	// Noise-free tool: systematic litho bias only.
	ms := Execute(plan, img, ToolModel{}, 1)
	st := Summarize(ms)

	lw := st[LineWidth]
	if lw.Valid == 0 {
		t.Fatal("no valid line measurements")
	}
	// 100nm drawn lines print narrow pre-OPC: mean error negative and
	// sizeable.
	if lw.MeanErr >= 0 || lw.MeanErr < -40 {
		t.Fatalf("line CD bias implausible: %+v", lw)
	}
	sw := st[SpaceWidth]
	if sw.Valid == 0 {
		t.Fatal("no valid space measurements")
	}
	// Narrow lines mean wide spaces: positive space error of similar
	// magnitude.
	if sw.MeanErr <= 0 {
		t.Fatalf("space bias should be positive when lines shrink: %+v", sw)
	}
	// Line and space biases roughly mirror (conservation at fixed pitch).
	if math.Abs(lw.MeanErr+sw.MeanErr) > 10 {
		t.Fatalf("line/space biases should roughly cancel: %v vs %v", lw.MeanErr, sw.MeanErr)
	}
}

func TestExecuteToolNoise(t *testing.T) {
	tt := tech.N45()
	cell := layout.LineSpace(tt, tech.Metal1, 100, 140, 3000, 7)
	rs := cell.LayerRects(tech.Metal1)
	plan := GeneratePlan(rs, tech.Metal1)
	window := geom.BBoxOf(rs).Bloat(300)
	img := simulate(t, rs, window, tt.Optics)

	clean := Summarize(Execute(plan, img, ToolModel{}, 1))
	noisy := Summarize(Execute(plan, img, ToolModel{NoiseNM: 2.0}, 1))
	if noisy[LineWidth].Sigma <= clean[LineWidth].Sigma {
		t.Fatalf("tool noise did not widen sigma: %v vs %v",
			noisy[LineWidth].Sigma, clean[LineWidth].Sigma)
	}
	biased := Summarize(Execute(plan, img, ToolModel{BiasNM: 5}, 1))
	if biased[LineWidth].MeanErr-clean[LineWidth].MeanErr < 4 {
		t.Fatalf("tool bias not reflected: %v vs %v",
			biased[LineWidth].MeanErr, clean[LineWidth].MeanErr)
	}
	// Same seed reproduces.
	a := Execute(plan, img, ToolModel{NoiseNM: 1}, 9)
	b := Execute(plan, img, ToolModel{NoiseNM: 1}, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("execution not reproducible")
		}
	}
}

func TestExecuteInvalidSites(t *testing.T) {
	tt := tech.N45()
	// Plan against geometry the image does not contain: invalid sites.
	rs := []geom.Rect{geom.R(0, 0, 70, 1000)}
	plan := GeneratePlan(rs, tech.Metal1)
	empty := simulate(t, nil, geom.R(0, 0, 1000, 1000), tt.Optics)
	ms := Execute(plan, empty, DefaultTool(), 1)
	for _, m := range ms {
		if m.Valid {
			t.Fatalf("site measured on an empty image: %+v", m)
		}
	}
	st := Summarize(ms)
	if st[LineWidth].Valid != 0 || st[LineWidth].N == 0 {
		t.Fatalf("invalid stats wrong: %+v", st[LineWidth])
	}
}

func TestPlanOnGeneratedBlock(t *testing.T) {
	tt := tech.N45()
	l, err := layout.GenerateBlock(tt, layout.BlockOpts{Rows: 2, RowWidth: 6000, Nets: 8, MaxFan: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m1 := layout.ByLayer(l.Flatten())[tech.Metal1]
	plan := GeneratePlan(m1, tech.Metal1)
	if len(plan.Sites) < 100 {
		t.Fatalf("block plan too small: %d sites", len(plan.Sites))
	}
	if len(plan.Sites) > maxSites {
		t.Fatalf("cap exceeded")
	}
}
