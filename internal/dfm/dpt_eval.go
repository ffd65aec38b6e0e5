package dfm

import (
	"context"

	"repro/internal/dpt"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// EvalDPT measures double-patterning readiness of the node's layout
// style: decompose a routed metal2 layer with a same-mask spacing
// constraint above the drawn minimum (the single-exposure limit the
// next shrink would impose) and score the result with and without
// stitch repair. The benefit metric is unresolved conflicts removed by
// stitching; the cost is stitch count (each stitch is an overlay-
// sensitive liability).
func EvalDPT(ctx context.Context, t *tech.Tech, opts layout.BlockOpts) (o Outcome) {
	o = Outcome{Technique: "dpt-decomposition"}
	defer track(&o)()
	if err := ctx.Err(); err != nil {
		o.Err = err
		return o
	}
	sp := stage("dpt-decomposition", "workload")
	l, err := generateBlock(t, opts)
	if err != nil {
		o.Err = err
		return o
	}
	m2 := layout.ByLayer(l.Flatten())[tech.Metal2]
	sp.End()
	// The constraint: features closer than 1.7x the drawn minimum must
	// split across masks — the pitch a 0.7x shrink would produce.
	sameMask := t.Rules[tech.Metal2].MinSpace * 17 / 10

	sp = stage("dpt-decomposition", "decompose")
	plain := dpt.Decompose(m2, sameMask, false, 0)
	if err := ctx.Err(); err != nil {
		o.Err = err
		return o
	}
	stitched := dpt.Decompose(m2, sameMask, true, 40)
	sStitched := stitched.ScoreDecomposition(40)
	sp.End()

	// The problem DPT solves: every sub-single-exposure adjacency is
	// unprintable in one exposure. "Before" is the full problem size;
	// "after" is what decomposition could not separate.
	o.Metrics = []Metric{
		{Name: "unprintable adjacencies", Before: float64(stitched.Edges),
			After: float64(len(stitched.Conflicts)), Unit: "count", HigherIsBetter: false, Primary: true},
		{Name: "unresolved odd cycles", Before: float64(len(plain.Conflicts)),
			After: float64(len(stitched.Conflicts)), Unit: "count", HigherIsBetter: false},
		{Name: "composite score", Before: 0, After: sStitched.Composite,
			Unit: "score", HigherIsBetter: true},
		{Name: "mask balance", Before: 0, After: 1 - stitched.DensityBalance(),
			Unit: "score", HigherIsBetter: true},
	}
	total := geom.AreaOf(m2)
	if total > 0 {
		// Stitch overlap area as the cost fraction.
		overlap := geom.AreaOf(geom.Intersect(stitched.MaskRects(0), stitched.MaskRects(1)))
		o.CostFrac = float64(overlap) / float64(total)
	}
	o.CostNote = "stitch overlays (CD variability at every stitch)"
	o.judge()
	return o
}
