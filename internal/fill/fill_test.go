package fill

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

func TestAnalyzeDensity(t *testing.T) {
	// Half-covered extent.
	rs := []geom.Rect{geom.R(0, 0, 5000, 10000)}
	dm := Analyze(rs, geom.R(0, 0, 10000, 10000), 5000, 5000)
	if len(dm.Windows) != 4 {
		t.Fatalf("window count = %d", len(dm.Windows))
	}
	st := dm.Summarize()
	if st.Min != 0 || st.Max != 1 {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
	if st.Mean != 0.5 {
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.MaxGradient != 1 {
		t.Fatalf("gradient = %v", st.MaxGradient)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var dm DensityMap
	st := dm.Summarize()
	if st.Mean != 0 || st.Sigma != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestSynthesizeRaisesSparseWindows(t *testing.T) {
	const window, step = 5000, 2500
	// A dense stripe on the left, nothing on the right.
	rs := []geom.Rect{geom.R(0, 0, 3000, 10000)}
	extent := geom.R(0, 0, 10000, 10000)

	before := Analyze(rs, extent, window, step).Summarize()
	tiles := Synthesize(rs, extent, window, step)
	if len(tiles) == 0 {
		t.Fatal("no fill emitted for a sparse layout")
	}
	after := Analyze(append(rs, tiles...), extent, window, step).Summarize()

	if after.Sigma >= before.Sigma {
		t.Fatalf("fill did not flatten density: sigma %v -> %v", before.Sigma, after.Sigma)
	}
	if after.Min <= before.Min {
		t.Fatalf("fill did not raise the sparsest window: %v -> %v", before.Min, after.Min)
	}
}

func TestSynthesizeRespectsSpacing(t *testing.T) {
	const window, step = 5000, 2500
	rs := []geom.Rect{geom.R(4000, 4000, 6000, 6000)}
	extent := geom.R(0, 0, 10000, 10000)
	tiles := Synthesize(rs, extent, window, step)
	for _, tile := range tiles {
		if tile.Distance(rs[0]) < tileSpace && !tile.Overlaps(rs[0]) {
			t.Fatalf("tile %v too close to signal", tile)
		}
		if tile.Overlaps(rs[0]) {
			t.Fatalf("tile %v overlaps signal", tile)
		}
	}
	// Tiles must not overlap each other.
	for i := range tiles {
		for j := i + 1; j < len(tiles); j++ {
			if tiles[i].Overlaps(tiles[j]) {
				t.Fatalf("tiles overlap: %v %v", tiles[i], tiles[j])
			}
		}
	}
}

func TestSynthesizeNoFillWhenDense(t *testing.T) {
	const window, step = 5000, 2500
	// Fully covered at target density already.
	rs := []geom.Rect{geom.R(0, 0, 10000, 10000)}
	if tiles := Synthesize(rs, geom.R(0, 0, 10000, 10000), window, step); len(tiles) != 0 {
		t.Fatalf("fill added to saturated layout: %d tiles", len(tiles))
	}
}

func TestCMPModel(t *testing.T) {
	m := DefaultCMP()
	rs := []geom.Rect{geom.R(0, 0, 5000, 10000)}
	dm := Analyze(rs, geom.R(0, 0, 10000, 10000), 5000, 5000)
	th := m.Thickness(dm)
	if len(th) != len(dm.Windows) {
		t.Fatalf("thickness length mismatch")
	}
	// Dense window polishes thinner than sparse window.
	var dense, sparse float64
	for i, d := range dm.Density {
		if d == 1 {
			dense = th[i]
		}
		if d == 0 {
			sparse = th[i]
		}
	}
	if dense >= sparse {
		t.Fatalf("CMP polarity wrong: dense=%v sparse=%v", dense, sparse)
	}
	if got := m.ThicknessRange(dm); got != m.SensitivityNM {
		t.Fatalf("thickness range = %v, want %v", got, m.SensitivityNM)
	}
	if m.ThicknessRange(DensityMap{}) != 0 {
		t.Fatalf("empty map range != 0")
	}
}

func TestFillOnGeneratedBlock(t *testing.T) {
	// Metal1 on a block has real density contrast (dense cell rows,
	// empty routing channels), which is the workload fill exists for.
	tt := tech.N45()
	l, err := layout.GenerateBlock(tt, layout.BlockOpts{Rows: 3, RowWidth: 8000, Nets: 10, MaxFan: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	m1 := layout.ByLayer(flat)[tech.Metal1]
	extent := geom.BBoxOf(m1)
	const window, step = 3000, 1500
	before := Analyze(m1, extent, window, step).Summarize()
	tiles := Synthesize(m1, extent, window, step)
	if len(tiles) == 0 {
		t.Fatal("no fill emitted for block metal1")
	}
	after := Analyze(append(append([]geom.Rect{}, m1...), tiles...), extent, window, step).Summarize()
	if after.Sigma >= before.Sigma {
		t.Fatalf("fill hurt uniformity on block: %v -> %v", before.Sigma, after.Sigma)
	}
	if after.Min <= before.Min {
		t.Fatalf("fill did not raise the sparsest window: %v -> %v", before.Min, after.Min)
	}
}
