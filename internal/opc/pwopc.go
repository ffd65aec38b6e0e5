package opc

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/litho"
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

// ProcessWindowOPC runs the simulate-then-move loop over weighted
// corners (StandardPWCorners(80) when there are none): each iteration
// simulates the current mask at every corner, measures EPE at every
// fragment's control site against the drawn target, and moves the
// fragment against its weight-averaged EPE, modelGain·Σw·EPE/Σw.
//
// The loop renders through the caller's handle: each iteration points
// it at the mask over window (Remask), so the optics and the defocus
// budget are rm's, a corner beyond the budget is the renderer's error,
// and each iteration renders over the grids of the one before. Corners
// that differ only in dose share a convolution stack. Result.Image is
// valid until rm's next Remask.
//
// The context is checked per feedback iteration (and per band inside
// each simulation). On cancellation, or optics the kernel rejects, it
// returns the mask so far alongside the error, so callers can
// distinguish a converged result from an interrupted one.
func ProcessWindowOPC(ctx context.Context, drawn []geom.Rect, window geom.Rect, rm *litho.RasterMask, mo ModelOpts, corners []PWCorner) (Result, error) {
	if len(corners) == 0 {
		corners = StandardPWCorners(80)
	}
	sp := hModelNS.Start()
	defer sp.End()
	cModelRuns.Inc()
	frags := FragmentEdges(drawn, mo.MaxLen, modelCornerLen)
	capOutward(drawn, frags)
	res := Result{Fragments: frags}

	var wsum float64
	for _, c := range corners {
		wsum += c.Weight
	}
	if wsum == 0 {
		wsum = 1
	}
	imgs := make([]*litho.Image, len(corners))
	sq := make([]float64, len(corners))
	for it := 0; it <= mo.Iterations; it++ {
		mask := ApplyBias(drawn, frags)
		rm.Remask(mask, window)
		for k, c := range corners {
			var err error
			if imgs[k], err = rm.Image(ctx, c.Cond); err != nil {
				return res, err
			}
		}
		cModelIters.Inc()
		clear(sq)
		var moved int64
		for _, f := range frags {
			var weighted float64
			for k, c := range corners {
				s := imgs[k].EPEAt(f.Edge, f.Site)
				sq[k] += s.EPE * s.EPE
				weighted += c.Weight * s.EPE
			}
			if it < mo.Iterations {
				// Move against the error; clamp to mask rules.
				prev := f.Bias
				f.Bias -= int64(modelGain * weighted / wsum)
				f.Bias = max(min(f.Bias, f.MaxOut), -modelMaxBias)
				if f.Bias != prev {
					moved++
				}
			}
		}
		cModelMoves.Add(moved)
		var rms float64
		if n := float64(len(frags)); n > 0 {
			for k, c := range corners {
				rms += c.Weight * math.Sqrt(sq[k]/n)
			}
		}
		res.RMSHistory = append(res.RMSHistory, rms/wsum)
		res.Mask = mask
	}
	res.Image = imgs[0]
	if len(res.RMSHistory) > 0 {
		gModelRMS.Set(res.RMSHistory[len(res.RMSHistory)-1])
	}
	return res, nil
}
