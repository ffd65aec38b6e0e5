package repair

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
	yieldpkg "repro/internal/yield"
)

// Opts parameterizes the score-and-repair loop.
type Opts struct {
	// Eval is the tiled evaluation configuration scores are computed
	// from. Surrogate gating is rejected: the incremental engine cannot
	// splice through a chip-global model.
	Eval tiling.Opts
	// Rounds bounds the propose-check-apply-rescore iterations
	// (default 1). The loop stops early when a round applies nothing.
	Rounds int
	// MaxFixes bounds applied fixes per round (0 = unlimited).
	MaxFixes int
}

// RoundStats reports one repair round.
type RoundStats struct {
	Proposed int
	Applied  int
	Rejected int
	// Incremental is false when the round's re-evaluation fell back to
	// a full run (tiling.ErrFullRequired — e.g. a fix moved a layer
	// bbox).
	Incremental    bool
	SplicedTiles   int
	SplicedWindows int
	Score          float64 // score after the round
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
	// Skipped counts attributions no strategy could propose for,
	// accumulated across rounds by reason.
	Skipped map[string]int
	// DeltaEvals and FullEvals count incremental vs from-scratch
	// re-evaluations (the initial scoring run is not counted).
	DeltaEvals, FullEvals int
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
	if o.Eval.Surrogate != nil {
		return nil, errors.New("repair: surrogate-gated evaluation cannot be repaired incrementally")
	}
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

	out := &Outcome{Before: sc, Skipped: make(map[string]int)}
	for round := 0; round < rounds; round++ {
		fixes, skipped, err := Propose(stdctx, t, cur, sc, Weights{})
		if err != nil {
			return nil, err
		}
		for k, n := range skipped {
			out.Skipped[k] += n
		}
		rs := RoundStats{Proposed: len(fixes), Incremental: true}
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

		// Re-evaluate the edited chip: incremental against the prior
		// snapshot, with the typed full-run fallback.
		ex := tiling.NewExtractor(cur)
		resN, snapN, err := tiling.EvaluateDelta(stdctx, t, ex, snap, dirty.Rects())
		switch {
		case err == nil:
			out.DeltaEvals++
		case errors.Is(err, tiling.ErrFullRequired):
			rs.Incremental = false
			out.FullEvals++
			if resN, snapN, err = tiling.EvaluateSnap(stdctx, t, ex, o.Eval); err != nil {
				return nil, err
			}
		default:
			return nil, err
		}
		res, snap = resN, snapN
		rs.SplicedTiles = res.Stats.SplicedTiles
		rs.SplicedWindows = res.Stats.SplicedWindows
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
