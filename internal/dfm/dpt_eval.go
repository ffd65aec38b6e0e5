package dfm

import (
	"context"

	"repro/internal/dpt"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// dptSameMask is the same-mask spacing of the decomposition: features
// closer than 1.7x the drawn metal2 minimum must split across masks —
// the pitch a 0.7x shrink would produce, above the single-exposure
// limit.
func dptSameMask(t *tech.Tech) int64 { return t.Rules[tech.Metal2].MinSpace * 17 / 10 }

// dptDecomposition measures double-patterning readiness of the node's
// layout style: decompose a routed metal2 layer and score the result
// with and without stitch repair. The benefit is unresolved conflicts
// removed by stitching; the cost is stitch overlap (each stitch is an
// overlay-sensitive liability).
//
// It is a fixer that keeps its own body. Its metrics compare two
// decompositions, not a layer before and after one: the before of its
// primary metric, the problem size, is the adjacency count among the
// stitched decomposition's features, which every stitch splits, and
// the before of the odd cycles is the plain decomposition's. No
// measure of the undecomposed layer reads either. (On the scorecard's
// blocks at seeds 0-39 the plain decomposition leaves no conflict, so
// no stitch is made and the two adjacency counts agree.)
func dptDecomposition(ctx context.Context, name string, t *tech.Tech, w workload) (v values, err error) {
	sp := stage(name, "fixture")
	flat, err := w.block()
	sp.End()
	if err != nil {
		return v, err
	}
	m2, sameMask := layout.ByLayer(flat)[tech.Metal2], dptSameMask(t)

	sp = stage(name, "decompose")
	plain := dpt.Decompose(m2, sameMask, false, 0)
	if err := ctx.Err(); err != nil {
		return v, err
	}
	stitched := dpt.Decompose(m2, sameMask, true, 40)
	score := stitched.ScoreDecomposition(40)
	sp.End()

	// Every sub-single-exposure adjacency is unprintable in one
	// exposure: "before" is the full problem size, "after" is what
	// decomposition could not separate. An undecomposed layer scores 0.
	left := float64(len(stitched.Conflicts))
	v.before = []float64{float64(stitched.Edges), float64(len(plain.Conflicts)), 0, 0}
	v.after = []float64{left, left, score.Composite, 1 - stitched.DensityBalance()}
	if total := geom.AreaOf(m2); total > 0 {
		overlap := geom.AreaOf(geom.Intersect(stitched.MaskRects(0), stitched.MaskRects(1)))
		v.frac = float64(overlap) / float64(total)
	}
	v.note = "stitch overlays (CD variability at every stitch)"
	return v, nil
}
