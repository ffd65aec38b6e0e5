// Package litho implements the lumped-parameter lithography simulator
// underneath the DFM stack: layout rasterization, a weighted Gaussian
// kernel stack approximating the partially coherent projection optics,
// a constant-threshold resist model, contour/CD/EPE metrology, pinch
// and bridge hotspot detection, and focus-exposure process-window
// analysis.
//
// The paper-world equivalent is a calibrated Hopkins/SOCS model plus a
// resist model; the Gaussian stack reproduces the systematics DFM
// exploits — proximity effects, corner rounding, line-end pullback,
// iso/dense bias, and through-focus CD behaviour — at a cost a unit
// test can afford. See DESIGN.md for the substitution rationale.
package litho

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Grid is a scalar field sampled on a uniform raster. Pixel (i, j)
// covers the square of size Pitch nm whose lower-left corner is at
// Origin + (i, j)*Pitch; samples are taken at pixel centers.
type Grid struct {
	Origin geom.Point
	Pitch  float64
	W, H   int
	Data   []float64
}

// gridDims returns the pixel dimensions of a grid covering the window
// at the given pitch: the window is expanded to whole pixels, with at
// least one pixel per axis.
func gridDims(window geom.Rect, pitch float64) (w, h int) {
	if pitch <= 0 {
		pitch = 1
	}
	w = int(math.Ceil(float64(window.Width()) / pitch))
	h = int(math.Ceil(float64(window.Height()) / pitch))
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return w, h
}

// NewGrid allocates a zeroed grid covering the window at the given
// pitch. The window is expanded to whole pixels.
func NewGrid(window geom.Rect, pitch float64) *Grid {
	if pitch <= 0 {
		pitch = 1
	}
	w, h := gridDims(window, pitch)
	return &Grid{
		Origin: window.LL(),
		Pitch:  pitch,
		W:      w,
		H:      h,
		Data:   make([]float64, w*h),
	}
}

// At returns the sample at pixel (i, j); out-of-range reads return 0.
func (g *Grid) At(i, j int) float64 {
	if i < 0 || j < 0 || i >= g.W || j >= g.H {
		return 0
	}
	return g.Data[j*g.W+i]
}

// Sample returns the bilinearly interpolated field value at nm
// coordinates (x, y).
func (g *Grid) Sample(x, y float64) float64 {
	fx := (x-float64(g.Origin.X))/g.Pitch - 0.5
	fy := (y-float64(g.Origin.Y))/g.Pitch - 0.5
	i0 := int(math.Floor(fx))
	j0 := int(math.Floor(fy))
	tx := fx - float64(i0)
	ty := fy - float64(j0)
	v00 := g.At(i0, j0)
	v10 := g.At(i0+1, j0)
	v01 := g.At(i0, j0+1)
	v11 := g.At(i0+1, j0+1)
	return v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
}

// Rasterize fills the grid with the area coverage of the rect set:
// each pixel gets the fraction of its area covered (anti-aliased mask
// function in [0, 1]).
func (g *Grid) Rasterize(rs []geom.Rect) {
	for _, r := range geom.Normalize(rs) {
		g.paint(r)
	}
}

// paint adds the coverage of one rect (assumed disjoint from all other
// painted rects).
func (g *Grid) paint(r geom.Rect) {
	x0 := (float64(r.X0) - float64(g.Origin.X)) / g.Pitch
	x1 := (float64(r.X1) - float64(g.Origin.X)) / g.Pitch
	y0 := (float64(r.Y0) - float64(g.Origin.Y)) / g.Pitch
	y1 := (float64(r.Y1) - float64(g.Origin.Y)) / g.Pitch
	i0 := int(math.Floor(x0))
	i1 := int(math.Ceil(x1))
	j0 := int(math.Floor(y0))
	j1 := int(math.Ceil(y1))
	if i0 < 0 {
		i0 = 0
	}
	if j0 < 0 {
		j0 = 0
	}
	if i1 > g.W {
		i1 = g.W
	}
	if j1 > g.H {
		j1 = g.H
	}
	for j := j0; j < j1; j++ {
		cy := overlap1D(float64(j), float64(j)+1, y0, y1)
		if cy <= 0 {
			continue
		}
		row := j * g.W
		for i := i0; i < i1; i++ {
			cx := overlap1D(float64(i), float64(i)+1, x0, x1)
			if cx > 0 {
				g.Data[row+i] += cx * cy
			}
		}
	}
}

func overlap1D(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	out := *g
	out.Data = make([]float64, len(g.Data))
	copy(out.Data, g.Data)
	return &out
}

// Max returns the maximum sample value (0 for empty grids).
func (g *Grid) Max() float64 {
	m := 0.0
	for _, v := range g.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// String implements fmt.Stringer.
func (g *Grid) String() string {
	return fmt.Sprintf("grid(%dx%d @ %.1fnm, origin %v)", g.W, g.H, g.Pitch, g.Origin)
}
