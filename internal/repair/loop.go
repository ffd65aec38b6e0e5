package repair

import (
	"context"
	"fmt"

	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
	yieldpkg "repro/internal/yield"
)

// Opts parameterizes the score-and-repair loop.
type Opts struct {
	// Eval is the tiled evaluation configuration scores are computed
	// from; rounds after the first re-score it through
	// tiling.EvaluateDelta.
	Eval tiling.Opts
	// Rounds bounds the propose-check-apply-rescore iterations
	// (default 1). The loop stops early when a round applies nothing.
	Rounds int
	// MaxFixes bounds applied fixes per round (0 = unlimited).
	MaxFixes int
}

// RoundStats reports one repair round.
type RoundStats struct {
	Proposed int `json:"proposed"`
	Applied  int `json:"applied"`
	Rejected int `json:"rejected"`
	// SplicedTiles is how incremental the round's re-evaluation was: the
	// tiles it took from the prior snapshot. It is 0 when a fix moved a
	// grid anchor (say, a layer bbox) and tiling.EvaluateDelta re-planned.
	SplicedTiles int     `json:"splicedTiles"`
	Score        float64 `json:"score"` // score after the round
}

// Rejection is one fix that failed the legality check, kept with the
// violations it would have introduced.
type Rejection struct {
	Fix    Fix
	Reason string
}

// Outcome is the result of a repair run.
type Outcome struct {
	Before, After Score
	Top           *layout.Cell   // the repaired cell (input is not modified)
	Result        *tiling.Result // final evaluation of Top
	Rounds        []RoundStats
	Applied       []Fix
	Rejected      []Rejection
	// Skipped counts, by reason, the findings the last proposal had no
	// fix for: what the loop still could not reach when it stopped. A
	// finding skipped round after round counts once.
	Skipped map[string]int
}

// AppliedByKind returns applied-fix counts per kind.
func (o *Outcome) AppliedByKind() map[string]int {
	m := make(map[string]int)
	for _, f := range o.Applied {
		m[f.Kind]++
	}
	return m
}

// Run executes the score-and-repair loop on the hierarchy under top:
// evaluate and score, propose fixes for the worst attributions, check
// each fix's legality against the working layout (serially, so
// accepted fixes constrain later ones), apply the survivors, and
// re-score through tiling.EvaluateDelta so each round costs the dirty
// region, not the chip. top is never modified; the repaired layout is
// Outcome.Top.
func Run(stdctx context.Context, t *tech.Tech, top *layout.Cell, o Opts) (*Outcome, error) {
	rounds := o.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	// The unchanged-context margin around each fix's dirty bbox for the
	// legality differential: rule reach for the violation, its far
	// offender, and marker extent.
	pad := 3 * tiling.MinHalo(t)

	res, snap, err := tiling.EvaluateSnap(stdctx, t, tiling.NewExtractor(top), o.Eval)
	if err != nil {
		return nil, err
	}
	cur := top
	singles, _ := yieldpkg.CountViaRedundancy(cur.Shapes, t)
	sc := ScoreResult(res, singles, Weights{})

	out := &Outcome{Before: sc}
	for round := 0; round < rounds; round++ {
		fixes, skipped, err := Propose(stdctx, t, cur, sc, Weights{})
		if err != nil {
			return nil, err
		}
		out.Skipped = skipped
		rs := RoundStats{Proposed: len(fixes)}
		var dirty Delta
		for _, f := range fixes {
			if o.MaxFixes > 0 && rs.Applied >= o.MaxFixes {
				break
			}
			cand, err := Apply(cur, f.Delta)
			if err != nil {
				// The fix edits geometry a previously applied fix
				// already moved; it is stale, not illegal.
				rs.Rejected++
				out.Rejected = append(out.Rejected, Rejection{Fix: f, Reason: fmt.Sprintf("stale: %v", err)})
				continue
			}
			fresh, err := NewViolations(stdctx, t, cur, cand, f.Delta, pad)
			if err != nil {
				return nil, err
			}
			if len(fresh) > 0 {
				rs.Rejected++
				out.Rejected = append(out.Rejected, Rejection{
					Fix:    f,
					Reason: fmt.Sprintf("would introduce %d violation(s), first %v", len(fresh), fresh[0]),
				})
				continue
			}
			cur = cand
			dirty.Merge(f.Delta)
			out.Applied = append(out.Applied, f)
			rs.Applied++
		}
		if rs.Applied == 0 {
			out.Rounds = append(out.Rounds, rs)
			break
		}

		if res, snap, err = tiling.EvaluateDelta(stdctx, t, tiling.NewExtractor(cur), snap, dirty.Rects()); err != nil {
			return nil, err
		}
		rs.SplicedTiles = res.Stats.SplicedTiles
		singles, _ = yieldpkg.CountViaRedundancy(cur.Shapes, t)
		sc = ScoreResult(res, singles, Weights{})
		rs.Score = sc.Total
		out.Rounds = append(out.Rounds, rs)
	}

	out.After = sc
	out.Top = cur
	out.Result = res
	return out, nil
}
