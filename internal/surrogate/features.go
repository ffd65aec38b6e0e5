// Package surrogate implements the uncertainty-gated ML pre-filter for
// the litho hotspot scan: a dependency-free, seed-deterministic
// gradient-boosted-stumps model over per-window geometric context
// features, trained in-process from exact simulation ground truth on a
// sampled subset of windows. Windows the model scores confidently
// clean skip the exact aerial-image simulation; everything uncertain
// or suspicious falls through, and deterministic fail-risk guards
// (sub-fail drawn width, near-fail drawn gap) force the exact engine
// regardless of the score so injected defects are never silently
// dropped. A calibration harness (calibrate.go) measures the model
// against held-out exact results on every run, so each evaluation
// reports where the shortcut is a hit and where it is hype.
package surrogate

import (
	"sort"

	"repro/internal/geom"
)

// Feature indices. Every feature is derived from int64 accumulators
// (sums, minima, counts) and converted to float64 once at the end, so
// the vector is independent of rect order — the tiled and flat
// engines extract the same window geometry in different orders and
// must gate identically.
const (
	FRects      = iota // rect count reaching the padded window
	FDensCore          // drawn density clipped to the core window
	FDensPad           // drawn density clipped to the padded window
	FMinDim            // narrowest drawn dimension, clamped
	FNarrow            // rects with MinDim < 2x the printed-fail width
	FSubFailW          // rects with MinDim < the printed-fail width (pinch guard)
	FMinGap            // smallest positive drawn gap, clamped
	FTightGap          // rect pairs with gap < 2x the printed-fail space
	FSubFailGap        // rect pairs with gap < 1.5x the printed-fail space (bridge guard)
	FPerimArea         // perimeter-to-area ratio of the window's drawn metal
	FNbDens            // neighbor-layer density clipped to the core window
	FNbOverlap         // drawn/neighbor overlap area fraction (coarse grid)
	FeatureDim
)

// Features is one window's geometric context vector.
type Features [FeatureDim]float64

// overlapGridN is the per-axis resolution of the coarse grid used for
// the neighbor-overlap feature. Exact pairwise intersection between
// two dense layers is quadratic; a fixed grid of clipped-area bins
// with a per-cell min() is O(rects) and plenty for a ranking feature.
const overlapGridN = 32

// WindowFeatures computes the context vector for one scan window. win
// is the core window, pad the extraction pad (rects and neighbor are
// the whole shapes reaching win.Bloat(pad)), and failW/failS the
// printed-fail thresholds the scan uses. The result depends only on
// the rect multisets, never on their order.
func WindowFeatures(win geom.Rect, pad int64, rects, neighbor []geom.Rect, failW, failS int64) Features {
	var f Features
	padded := win.Bloat(pad)
	coreArea := win.Area()
	if coreArea <= 0 {
		return f
	}

	var areaCore, areaPad, perim int64
	minDim := 4 * failW
	var nNarrow, nSubW int64
	for _, r := range rects {
		if c := r.Intersect(win); !c.Empty() {
			areaCore += c.Area()
		}
		if c := r.Intersect(padded); !c.Empty() {
			areaPad += c.Area()
		}
		perim += r.Perimeter()
		d := r.MinDim()
		if d < minDim {
			minDim = d
		}
		if d < 2*failW {
			nNarrow++
		}
		if d < failW {
			nSubW++
		}
	}

	minGap, nTight, nSubGap := gapStats(rects, failS)

	var nbArea int64
	for _, r := range neighbor {
		if c := r.Intersect(win); !c.Empty() {
			nbArea += c.Area()
		}
	}
	overlap := gridOverlap(win, rects, neighbor)

	f[FRects] = float64(len(rects))
	f[FDensCore] = float64(areaCore) / float64(coreArea)
	f[FDensPad] = float64(areaPad) / float64(padded.Area())
	f[FMinDim] = float64(minDim)
	f[FNarrow] = float64(nNarrow)
	f[FSubFailW] = float64(nSubW)
	f[FMinGap] = float64(minGap)
	f[FTightGap] = float64(nTight)
	f[FSubFailGap] = float64(nSubGap)
	f[FPerimArea] = float64(perim) / float64(max(1, areaCore))
	f[FNbDens] = float64(nbArea) / float64(coreArea)
	f[FNbOverlap] = float64(overlap) / float64(coreArea)
	return f
}

// gapStats sweeps rect pairs for drawn-gap statistics: the smallest
// positive gap (clamped to 4*failS), pairs tighter than 2*failS, and
// pairs tighter than the bridge-guard threshold 1.5*failS. Touching
// or overlapping rects (gap 0) are connected geometry, not a spacing
// risk, and are excluded. The sweep sorts by X0 and stops each inner
// scan once no candidate can be within reach, so dense windows stay
// near-linear.
func gapStats(rects []geom.Rect, failS int64) (minGap, nTight, nSubGap int64) {
	minGap = 4 * failS
	reach := 2 * failS
	guard := (3 * failS) / 2
	if len(rects) < 2 {
		return minGap, 0, 0
	}
	sorted := make([]geom.Rect, len(rects))
	copy(sorted, rects)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		if a.X1 != b.X1 {
			return a.X1 < b.X1
		}
		return a.Y1 < b.Y1
	})
	for i, r := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			s := sorted[j]
			if s.X0 > r.X1+reach {
				break // every later rect starts even farther right
			}
			g := r.Distance(s)
			if g <= 0 || g > reach {
				continue
			}
			if g < minGap {
				minGap = g
			}
			nTight++
			if g < guard {
				nSubGap++
			}
		}
	}
	return minGap, nTight, nSubGap
}

// gridOverlap approximates the drawn/neighbor overlap area inside win
// on a fixed coarse grid: both layers accumulate clipped area per
// cell, and the overlap is the per-cell minimum summed — an
// order-independent O(rects + cells) stand-in for exact pairwise
// intersection.
func gridOverlap(win geom.Rect, rects, neighbor []geom.Rect) int64 {
	if len(rects) == 0 || len(neighbor) == 0 {
		return 0
	}
	var a, b [overlapGridN * overlapGridN]int64
	accumulate(win, rects, &a)
	accumulate(win, neighbor, &b)
	var sum int64
	for i := range a {
		sum += min(a[i], b[i])
	}
	return sum
}

// accumulate adds each rect's clipped area into the win-covering grid.
// Cell boundaries are computed in exact integer arithmetic.
func accumulate(win geom.Rect, rects []geom.Rect, cells *[overlapGridN * overlapGridN]int64) {
	w, h := win.Width(), win.Height()
	cellX := func(i int64) int64 { return win.X0 + i*w/overlapGridN }
	cellY := func(j int64) int64 { return win.Y0 + j*h/overlapGridN }
	for _, r := range rects {
		c := r.Intersect(win)
		if c.Empty() {
			continue
		}
		i0 := (c.X0 - win.X0) * overlapGridN / w
		i1 := (c.X1 - 1 - win.X0) * overlapGridN / w
		j0 := (c.Y0 - win.Y0) * overlapGridN / h
		j1 := (c.Y1 - 1 - win.Y0) * overlapGridN / h
		for j := j0; j <= j1; j++ {
			for i := i0; i <= i1; i++ {
				cell := geom.R(cellX(i), cellY(j), cellX(i+1), cellY(j+1))
				if p := c.Intersect(cell); !p.Empty() {
					cells[j*overlapGridN+i] += p.Area()
				}
			}
		}
	}
}

// Guarded reports whether the deterministic fail-risk guards force
// the exact engine for a window regardless of the model score: any
// drawn shape narrower than the printed-fail width is a pinch
// suspect, and any drawn gap closer than 1.5x the printed-fail space
// is a bridge suspect. The guards are what make the gate safe by
// construction: a window containing an injected defect structure
// always trips one, so no ground-truth failure can be skipped on a
// model's say-so.
func Guarded(f Features) bool {
	return f[FSubFailW] > 0 || f[FSubFailGap] > 0
}
