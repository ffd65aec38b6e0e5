// Package yield implements defect-limited yield analysis: the
// power-law defect size distribution, geometric critical-area
// extraction for shorts and opens, Poisson and negative-binomial yield
// models, via-failure statistics, and Monte Carlo defect injection.
// These are the published models (Stapper; Ferris-Prabhu) that
// quantify the redundant-via and critical-area experiments.
package yield

import (
	"math"
	"math/rand"
)

// SizeDist is the standard 1/x^3 defect size distribution on
// [X0, XMax] nm: f(x) = 2*X0^2/x^3 normalized over [X0, inf), truncated
// at XMax and renormalized.
type SizeDist struct {
	X0   float64
	XMax float64
}

// norm returns the normalization constant: integral of 2*X0^2/x^3 over
// [X0, XMax] = 1 - (X0/XMax)^2.
func (d SizeDist) norm() float64 {
	r := d.X0 / d.XMax
	return 1 - r*r
}

// PDF returns the probability density at size x.
func (d SizeDist) PDF(x float64) float64 {
	if x < d.X0 || x > d.XMax {
		return 0
	}
	return 2 * d.X0 * d.X0 / (x * x * x) / d.norm()
}

// CDF returns P(size <= x).
func (d SizeDist) CDF(x float64) float64 {
	switch {
	case x <= d.X0:
		return 0
	case x >= d.XMax:
		return 1
	}
	return (1 - (d.X0/x)*(d.X0/x)) / d.norm()
}

// Sample draws one defect size by inverse-transform sampling.
func (d SizeDist) Sample(rnd *rand.Rand) float64 {
	u := rnd.Float64() * d.norm()
	// Invert u = 1 - (X0/x)^2  =>  x = X0 / sqrt(1-u).
	return d.X0 / math.Sqrt(1-u)
}
