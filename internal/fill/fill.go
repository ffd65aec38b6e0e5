// Package fill implements metal density analysis, dummy-fill
// synthesis, and a first-order CMP thickness model. CMP dishing and
// erosion track local pattern density; fabs therefore bound window
// density and gradients, and fill insertion is the DFM technique that
// repairs sparse regions. Experiment T4 quantifies the uniformity
// gain versus the added (electrically dead) metal.
package fill

import (
	"context"
	"math"
	"runtime"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/harness"
)

// DensityMap is the windowed density field of one layer.
type DensityMap struct {
	Windows []geom.Rect
	Density []float64
}

// Analyze computes the density map of the rect set over the extent
// with the given window and step. Windows are independent reads of the
// normalized geometry, so they fan out across the machine's cores;
// results land by window index, keeping the map deterministic.
func Analyze(rs []geom.Rect, extent geom.Rect, window, step int64) DensityMap {
	ws := drc.WindowGrid(extent, window, step)
	dm := DensityMap{Windows: ws, Density: make([]float64, len(ws))}
	norm := geom.Normalize(rs)
	_ = harness.ForEach(context.Background(), runtime.GOMAXPROCS(0), len(ws), func(i int) {
		dm.Density[i] = drc.DensityIn(norm, ws[i])
	})
	return dm
}

// Stats summarizes a density map.
type Stats struct {
	Min, Max, Mean, Sigma float64
	// MaxGradient is the largest density difference between adjacent
	// windows, the CMP-relevant non-uniformity measure.
	MaxGradient float64
}

// Summarize computes density statistics.
func (dm DensityMap) Summarize() Stats {
	var st Stats
	n := len(dm.Density)
	if n == 0 {
		return st
	}
	st.Min = math.Inf(1)
	var sum float64
	for _, d := range dm.Density {
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		sum += d
	}
	st.Mean = sum / float64(n)
	var sq float64
	for _, d := range dm.Density {
		sq += (d - st.Mean) * (d - st.Mean)
	}
	st.Sigma = math.Sqrt(sq / float64(n))
	// Gradient: compare windows whose centers are within 1.5 window
	// diagonals.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ci, cj := dm.Windows[i].Center(), dm.Windows[j].Center()
			lim := (dm.Windows[i].Width() + dm.Windows[j].Width()) * 3 / 4
			if ci.ChebyshevDist(cj) <= lim {
				if g := math.Abs(dm.Density[i] - dm.Density[j]); g > st.MaxGradient {
					st.MaxGradient = g
				}
			}
		}
	}
	return st
}

// Typical metal fill rules.
const (
	target    = 0.35 // desired window density
	tileSize  = 300  // square dummy tile edge
	tileSpace = 200  // tile-to-tile and tile-to-signal spacing
	pitch     = tileSize + tileSpace
)

// Synthesize returns dummy tiles that raise every under-target window
// toward the target density without violating spacing to existing
// geometry. Tiles are placed on a regular grid and skipped where they
// would encroach on signal shapes. window and step are the analysis
// grid, as Analyze takes them.
func Synthesize(rs []geom.Rect, extent geom.Rect, window, step int64) []geom.Rect {
	norm := geom.Normalize(rs)
	ix := geom.IndexOf(4*pitch, norm)

	var tiles []geom.Rect
	tileIx := geom.NewIndex(4 * pitch)

	// tileAreaIn sums already-placed (disjoint) tile area inside a
	// window so overlapping analysis windows don't double-fill.
	tileAreaIn := func(w geom.Rect) int64 {
		var a int64
		tileIx.QueryFunc(w, func(id int, r geom.Rect) bool {
			a += r.Intersect(w).Area()
			return true
		})
		return a
	}

	for _, w := range drc.WindowGrid(extent, window, step) {
		d := drc.DensityIn(norm, w) + float64(tileAreaIn(w))/float64(w.Area())
		if d >= target {
			continue
		}
		// Deficit in tile counts.
		deficit := (target - d) * float64(w.Area())
		need := int(math.Ceil(deficit / float64(tileSize*tileSize)))
		placed := 0
		// Candidate grid aligned to the global origin so overlapping
		// windows propose identical tile positions.
		x0 := (w.X0/pitch)*pitch + tileSpace
		y0 := (w.Y0/pitch)*pitch + tileSpace
		for y := y0; y+tileSize <= w.Y1 && placed < need; y += pitch {
			for x := x0; x+tileSize <= w.X1 && placed < need; x += pitch {
				tile := geom.R(x, y, x+tileSize, y+tileSize)
				if tile.X0 < w.X0 || tile.Y0 < w.Y0 {
					continue
				}
				if blockedBy(ix, tile, tileSpace) || blockedBy(tileIx, tile, 0) {
					continue
				}
				tiles = append(tiles, tile)
				tileIx.Insert(tile)
				placed++
			}
		}
	}
	return tiles
}

// blockedBy reports whether the tile bloated by space hits anything in
// the index.
func blockedBy(ix *geom.Index, tile geom.Rect, space int64) bool {
	hit := false
	ix.QueryFunc(tile.Bloat(space), func(id int, r geom.Rect) bool {
		hit = true
		return false
	})
	return hit
}

// CMPModel is a first-order dielectric thickness model: post-polish
// thickness deviation is proportional to the local density's deviation
// from the mean.
type CMPModel struct {
	// NominalNM is the target dielectric thickness.
	NominalNM float64
	// SensitivityNM is the thickness change per unit density deviation.
	SensitivityNM float64
}

// DefaultCMP returns 45nm-era copper CMP sensitivity.
func DefaultCMP() CMPModel {
	return CMPModel{NominalNM: 250, SensitivityNM: 120}
}

// Thickness maps a density map to per-window thickness.
func (m CMPModel) Thickness(dm DensityMap) []float64 {
	st := dm.Summarize()
	out := make([]float64, len(dm.Density))
	for i, d := range dm.Density {
		out[i] = m.NominalNM - m.SensitivityNM*(d-st.Mean)
	}
	return out
}

// ThicknessRange returns max-min post-CMP thickness, the planarity
// figure of merit.
func (m CMPModel) ThicknessRange(dm DensityMap) float64 {
	th := m.Thickness(dm)
	if len(th) == 0 {
		return 0
	}
	lo, hi := th[0], th[0]
	for _, v := range th[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
