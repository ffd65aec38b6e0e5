package opc

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
)

// Process-window OPC: instead of correcting at best focus only, the
// feedback loop averages the EPE over a set of weighted process
// corners. The resulting mask trades a little nominal fidelity for
// much better behaviour at the corners — the "process-window aware"
// correction that displaced nominal-only OPC.

// PWCorner is one weighted optimization condition.
type PWCorner struct {
	Cond   litho.Condition
	Weight float64
}

// StandardPWCorners returns the usual nominal-plus-defocus pair with a
// 2:1 weighting.
func StandardPWCorners(defocus float64) []PWCorner {
	return []PWCorner{
		{Cond: litho.Nominal, Weight: 2},
		{Cond: litho.Condition{Defocus: defocus, Dose: 1}, Weight: 1},
	}
}

// PWResult carries the corrected mask and per-corner RMS history.
type PWResult struct {
	Mask      []geom.Rect
	Fragments []*Fragment
	// RMSByCorner[i][k] is corner k's RMS EPE after iteration i.
	RMSByCorner [][]float64
}

// ProcessWindowOPC runs the multi-corner simulate-then-move loop. Like
// ModelBased it stops at the first simulation that fails (a canceled
// context, optics the kernel rejects) and returns the mask so far
// alongside the error.
func ProcessWindowOPC(ctx context.Context, drawn []geom.Rect, window geom.Rect, opt tech.Optics, mo ModelOpts, corners []PWCorner) (PWResult, error) {
	if len(corners) == 0 {
		corners = StandardPWCorners(80)
	}
	cPWRuns.Inc()
	frags := FragmentEdges(drawn, mo.MaxLen, modelCornerLen)
	capOutward(drawn, frags)
	res := PWResult{Fragments: frags}

	var wsum float64
	for _, c := range corners {
		wsum += c.Weight
	}
	if wsum == 0 {
		wsum = 1
	}

	maxF := 0.0
	for _, c := range corners {
		if a := math.Abs(c.Cond.Defocus); a > maxF {
			maxF = a
		}
	}
	for it := 0; it <= mo.Iterations; it++ {
		mask := ApplyBias(drawn, frags)
		// The mask changes every iteration, but within an iteration all
		// corners share one normalized mask, and corners that differ only
		// in dose share the convolution result too.
		rm := litho.NewRasterMask(mask, window, opt, maxF)
		imgs := make([]*litho.Image, len(corners))
		for k, c := range corners {
			var err error
			if imgs[k], err = litho.SimulateRaster(ctx, rm, c.Cond); err != nil {
				return res, err
			}
		}
		cPWIters.Inc()
		rms := make([]float64, len(corners))
		sq := make([]float64, len(corners))
		var moved int64
		for _, f := range frags {
			var weighted float64
			for k, c := range corners {
				s := imgs[k].EPEAt(f.Edge, f.Site)
				sq[k] += s.EPE * s.EPE
				weighted += c.Weight * s.EPE
			}
			if it < mo.Iterations {
				prev := f.Bias
				f.Bias -= int64(modelGain * weighted / wsum)
				if f.Bias > f.MaxOut {
					f.Bias = f.MaxOut
				}
				if f.Bias < -modelMaxBias {
					f.Bias = -modelMaxBias
				}
				if f.Bias != prev {
					moved++
				}
			}
		}
		cPWMoves.Add(moved)
		n := float64(len(frags))
		for k := range rms {
			if n > 0 {
				rms[k] = math.Sqrt(sq[k] / n)
			}
		}
		res.RMSByCorner = append(res.RMSByCorner, rms)
		res.Mask = mask
	}
	return res, nil
}
