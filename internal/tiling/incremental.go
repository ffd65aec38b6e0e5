package tiling

import (
	"context"
	"errors"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
)

// Incremental re-evaluation: the edit-check loop's fast path. A full
// tiled run records a Snapshot — the per-unit outputs plus the grid
// geometry that produced them — and a later run over an *edited* chip
// recomputes only the tiles and scan windows whose halo-bloated
// extraction windows touch the dirty region, splicing every other
// unit's prior output verbatim. Correctness rests on two facts the
// engine already guarantees: extraction is a pure window query
// (whole shapes, closed-interval touch — a window no dirty rect
// touches extracts an identical multiset from the edited hierarchy),
// and every per-unit computation is a pure function of its extracted
// window. The stitch is the one every evaluation runs (stitch.go): it
// patches the snapshot's merged list with what the recomputed tiles
// hold differently, where a from-scratch run patches an empty list with
// every tile, so the result is bit-identical to a from-scratch Evaluate
// of the edited chip — pinned by the differential tests in
// incremental_test.go and delta_chain_test.go.

// Snapshot retains one evaluation's plan — the grid that located every
// unit — the per-unit outputs its stitch consumed, and the stitched
// state that came out, so the next delta patches the merged list
// instead of merging the chip again (stitch.go). It is immutable once
// returned; successive deltas chain snapshots, sharing the plan,
// unchanged unit outputs and unchanged density arrays.
type Snapshot struct {
	plan   *plan
	outs   []*TileResult       // chip-frame per-tile outputs, each sorted
	st     *stitched           // nil over an empty die
	perWin [][][]litho.Hotspot // [plan.scans index][window] kept hotspots
}

// Die returns the die bbox the snapshot was recorded over.
func (s *Snapshot) Die() geom.Rect { return s.plan.die }

// InvalidatedTiles returns, in index order, exactly the stage-A tiles
// EvaluateDelta would recompute for the given dirty rects: those whose
// pad-bloated core touches (closed-interval, matching extraction) any
// changed rect. Pure geometry — no extraction, no evaluation — so
// tests can pin the invalidation footprint of a delta independently.
func (s *Snapshot) InvalidatedTiles(changed []geom.Rect) []int {
	return s.plan.dirtyTiles(changed)
}

// EvaluateSnap is Evaluate plus a Snapshot for later EvaluateDelta
// calls. The result is identical to Evaluate's.
func EvaluateSnap(stdctx context.Context, t *tech.Tech, ex *Extractor, o Opts) (*Result, *Snapshot, error) {
	return evaluate(stdctx, newPlan(t, ex, o), ex, nil, nil, nil)
}

// EvaluateDelta re-evaluates an edited chip against a prior snapshot:
// ex must be a fresh Extractor over the edited hierarchy, and changed
// must cover every rect added to or removed from it since the snapshot
// (per-shape rects, not a merged bbox — the invalidation footprint is
// their union of touches). Only units whose extraction windows touch a
// changed rect are re-extracted and recomputed; the rest splice from
// the snapshot. Returns the result — bit-identical to a from-scratch
// Evaluate of the edited chip under the snapshot's options — plus a
// new snapshot for chaining. An edit the snapshot's plan no longer
// fits (plan.fits: it moved a grid anchor or changed which rules run)
// is evaluated from scratch under those options instead, splicing
// nothing; its snapshot chains like any other.
func EvaluateDelta(stdctx context.Context, t *tech.Tech, ex *Extractor, prev *Snapshot, changed []geom.Rect) (*Result, *Snapshot, error) {
	if prev == nil {
		return nil, nil, errors.New("tiling: EvaluateDelta needs a snapshot")
	}
	if !prev.plan.fits(t, ex) {
		return evaluate(stdctx, newPlan(t, ex, prev.plan.opts), ex, nil, nil, nil)
	}
	return evaluate(stdctx, prev.plan, ex, nil, prev, changed)
}

// touchesAny reports whether any changed rect touches win under the
// extractor's closed-interval predicate — the exact condition under
// which the window's extracted multiset can differ.
func touchesAny(win geom.Rect, changed []geom.Rect) bool {
	for _, r := range changed {
		if touches(r, win) {
			return true
		}
	}
	return false
}
