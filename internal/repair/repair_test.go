package repair

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/tiling"
)

func TestScoreResult(t *testing.T) {
	res := &tiling.Result{
		Violations: []drc.Violation{
			{Rule: "metal2.space.70", Layer: tech.Metal2, Marker: geom.R(0, 0, 50, 70)},
			{Rule: "metal2.space.70", Layer: tech.Metal2, Marker: geom.R(0, 100, 50, 170)},
			{Rule: "metal1.density", Layer: tech.Metal1, Marker: geom.R(0, 0, 3000, 3000)},
			{Rule: "via1.enc.metal2.20", Layer: tech.Via1, Marker: geom.R(10, 10, 70, 70)},
		},
		ByRule: map[string]int{
			"metal2.space.70": 2, "metal1.density": 1, "via1.enc.metal2.20": 1,
		},
		Hotspots: map[tech.Layer][]litho.Hotspot{
			tech.Metal1: {{Box: geom.R(500, 500, 600, 600)}},
		},
	}
	sc := ScoreResult(res, 3, Weights{})
	// Defaults: space 4, density 1, enclosure 3, hotspot 5, single 0.5.
	if sc.Violations != 2*4+1+3 {
		t.Fatalf("Violations = %v, want 12", sc.Violations)
	}
	if sc.Hotspots != 5 || sc.SingleVias != 1.5 || sc.Singles != 3 {
		t.Fatalf("Hotspots = %v, SingleVias = %v, Singles = %d", sc.Hotspots, sc.SingleVias, sc.Singles)
	}
	if sc.Total != 12+5+1.5 {
		t.Fatalf("Total = %v, want 18.5", sc.Total)
	}
	// Attribution order: weight descending, ties by rule then marker.
	attr := sc.Attributions()
	if len(attr) != 5 {
		t.Fatalf("attr count = %d, want 5", len(attr))
	}
	wantRules := []string{"hotspot.metal1", "metal2.space.70", "metal2.space.70", "via1.enc.metal2.20", "metal1.density"}
	for i, a := range attr {
		if a.Rule != wantRules[i] {
			t.Fatalf("attr[%d] = %+v, want rule %s (full: %+v)", i, a, wantRules[i], attr)
		}
	}
	if attr[1].Marker.Y0 > attr[2].Marker.Y0 {
		t.Fatalf("tied attributions out of marker order: %+v", attr[1:3])
	}

	// Per-rule override wins over the class weight.
	sc2 := ScoreResult(res, 0, Weights{Rule: map[string]float64{"metal2.space.70": 10}})
	if sc2.ByRule["metal2.space.70"] != 20 {
		t.Fatalf("override ByRule = %v", sc2.ByRule)
	}

	// Dropped violations still cost at the rule's weight.
	capped := &tiling.Result{
		Violations: res.Violations[:1],
		Dropped:    1,
		ByRule:     map[string]int{"metal2.space.70": 2},
	}
	scc := ScoreResult(capped, 0, Weights{})
	if scc.Violations != 8 {
		t.Fatalf("capped Violations = %v, want 8 (one attributed + one dropped)", scc.Violations)
	}
}

func TestDeltaApply(t *testing.T) {
	top := layout.NewCell("X_T")
	top.AddNet(tech.Metal1, geom.R(0, 0, 300, 70), 1)
	top.AddNet(tech.Metal1, geom.R(0, 100, 300, 170), 1) // duplicate-layer sibling
	child := layout.NewCell("X_C")
	top.Place(child, geom.Identity, "c0")

	d := Delta{
		Removed: []layout.Shape{{Layer: tech.Metal1, R: geom.R(0, 0, 300, 70), Net: 1}},
		Added:   []layout.Shape{{Layer: tech.Metal1, R: geom.R(20, 0, 320, 70), Net: 1}},
	}
	got, err := Apply(top, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shapes) != 2 || len(top.Shapes) != 2 {
		t.Fatalf("shapes: got %d, original %d (want 2 and 2)", len(got.Shapes), len(top.Shapes))
	}
	if got.Shapes[1].R != geom.R(20, 0, 320, 70) {
		t.Fatalf("applied shapes = %+v", got.Shapes)
	}
	if len(got.Insts) != 1 || got.Insts[0].Cell != child {
		t.Fatal("instances not shared")
	}

	// Removing a shape that does not exist is an error, not a no-op.
	bad := Delta{Removed: []layout.Shape{{Layer: tech.Metal2, R: geom.R(0, 0, 10, 10), Net: layout.NoNet}}}
	if _, err := Apply(top, bad); err == nil {
		t.Fatal("removal of absent shape: want error")
	}

	// Rects reports added and removed; BBox bounds them.
	if n := len(d.Rects()); n != 2 {
		t.Fatalf("Rects = %d, want 2", n)
	}
	if d.BBox() != (geom.R(0, 0, 320, 70)) {
		t.Fatalf("BBox = %v", d.BBox())
	}
}

// The headline repair differential: a chip with injected spacing
// defects and repairable via sites, repaired end-to-end. Every fix
// must be DRC-legal (the dirty-window check reports zero new
// violations), the score must drop, and the final incremental result
// must be bit-identical to a from-scratch evaluation of the repaired
// chip — across two tile sizes, one with density checking on.
func TestRepairChipDifferential(t *testing.T) {
	tt := tech.N45()
	l, info, err := layout.GenerateChip(tt, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, Defects: 3, RepairDefects: 2,
		MacroMix: []int{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.RepairSites) != 4 {
		t.Fatalf("repair sites = %d, want 4", len(info.RepairSites))
	}

	evals := []tiling.Opts{
		{Tile: 9000, Halo: 2000, DRC: true},
		{Tile: 16000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true},
	}
	for _, eo := range evals {
		t.Run(fmt.Sprintf("tile=%d_density=%v", eo.Tile, eo.Density), func(t *testing.T) {
			out, err := Run(context.Background(), tt, l.Top, Opts{Eval: eo, Rounds: 3})
			if err != nil {
				t.Fatal(err)
			}
			if out.After.Total >= out.Before.Total {
				t.Fatalf("score did not improve: %.1f -> %.1f", out.Before.Total, out.After.Total)
			}
			// The three injected spacing defects and both under-enclosed
			// vias are healed; the four single cuts all gain partners.
			if b, a := out.Before.ByRule["metal2.space.70"], out.After.ByRule["metal2.space.70"]; a != b-3*4 {
				t.Fatalf("metal2.space score %v -> %v, want -12", b, a)
			}
			if b, a := out.Before.ByRule["via1.enc.metal2.20"], out.After.ByRule["via1.enc.metal2.20"]; a != b-2*3 {
				t.Fatalf("via1.enc score %v -> %v, want -6", b, a)
			}
			if out.Before.Singles != 4 || out.After.Singles != 0 {
				t.Fatalf("singles %d -> %d, want 4 -> 0", out.Before.Singles, out.After.Singles)
			}
			byKind := out.AppliedByKind()
			if byKind["spread"] != 3 || byKind["grow"] != 2 || byKind["double"] != 4 {
				t.Fatalf("applied by kind = %v, want 3 spread, 2 grow, 4 double", byKind)
			}
			// The loop converged before the round budget and re-scored
			// incrementally, actually splicing unchanged tiles.
			if out.DeltaEvals == 0 || out.FullEvals != 0 {
				t.Fatalf("evals: %d delta, %d full; want incremental only", out.DeltaEvals, out.FullEvals)
			}
			// On the fine grid the fixes are local enough that the first
			// round must actually splice (the coarse grid covers this
			// small chip in a handful of tiles, all plausibly dirty).
			if eo.Tile == 9000 && out.Rounds[0].SplicedTiles == 0 {
				t.Fatal("first round recomputed every tile")
			}

			// The differential: the incremental result the loop ended on
			// must equal a from-scratch evaluation of the repaired chip.
			fresh, err := tiling.EvaluateChip(context.Background(), tt, out.Top, eo)
			if err != nil {
				t.Fatal(err)
			}
			if !tiling.Equivalent(out.Result, fresh) {
				t.Fatal("incremental repair result differs from from-scratch evaluation")
			}
			// And the input chip was never modified.
			if len(l.Top.Shapes) == len(out.Top.Shapes) {
				t.Fatal("repair added shapes but the top shape count is unchanged")
			}
		})
	}
}

// A fix that would trade one violation for another must be rejected —
// and the rejection recorded, never silently dropped.
func TestRepairRejectsIllegalFix(t *testing.T) {
	tt := tech.N45()
	out, err := Run(context.Background(), tt, trapCell(), Opts{
		Eval:   tiling.Opts{Tile: 8000, Halo: 2000, DRC: true},
		Rounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Applied) != 0 {
		t.Fatalf("applied %d fixes, want 0: %+v", len(out.Applied), out.Applied)
	}
	// Round 1 rejects the only proposal and applies nothing, so the
	// loop converges there instead of re-litigating the same fix.
	if len(out.Rejected) != 1 {
		t.Fatalf("rejected = %d, want 1: %+v", len(out.Rejected), out.Rejected)
	}
	if len(out.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1: %+v", len(out.Rounds), out.Rounds)
	}
	rej := out.Rejected[0]
	if rej.Fix.Kind != "spread" || !strings.Contains(rej.Reason, "metal2.space.70") {
		t.Fatalf("rejection = %+v", rej)
	}
	if out.After.Total != out.Before.Total {
		t.Fatalf("score moved without applied fixes: %v -> %v", out.Before.Total, out.After.Total)
	}
	if out.Result.ByRule["metal2.space.70"] != 1 {
		t.Fatalf("violation should remain: %v", out.Result.ByRule)
	}
}

// A delta whose new violations tie on (rule, Y0, X0) — a small L of two
// narrow rects draws metal1.width.70 at [0,0 60,40] and at [0,0 40,60] —
// gets the same list on every call, in SortViolations order, so the
// "first" a Rejection names is one violation, not a map-order draw.
func TestNewViolationsOrderIsTotal(t *testing.T) {
	tt := tech.N45()
	cur := layout.NewCell("X_TIES")
	cur.Add(tech.Metal1, geom.R(-5000, -5000, -4000, -4000))
	d := Delta{Added: []layout.Shape{
		{Layer: tech.Metal1, R: geom.R(0, 0, 60, 40), Net: layout.NoNet},
		{Layer: tech.Metal1, R: geom.R(0, 0, 40, 60), Net: layout.NoNet},
	}}
	cand, err := Apply(cur, d)
	if err != nil {
		t.Fatal(err)
	}
	var want []drc.Violation
	for i := 0; i < 50; i++ {
		got, err := NewViolations(context.Background(), tt, cur, cand, d, 500)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			ties := 0
			for k := 1; k < len(got); k++ {
				a, b := got[k-1], got[k]
				if a.Rule == b.Rule && a.Marker.Y0 == b.Marker.Y0 && a.Marker.X0 == b.Marker.X0 {
					ties++
				}
			}
			if ties == 0 {
				t.Fatalf("no two new violations tie on rule, Y0 and X0; the case is vacuous: %v", got)
			}
		}
		if !slices.IsSortedFunc(got, drc.CompareViolations) {
			t.Fatalf("call %d: new violations are not in SortViolations order: %v", i, got)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: new violations %v, first call %v", i, got, want)
		}
	}
}

// trapCell holds one spacing violation whose only fix recreates it.
func trapCell() *layout.Cell {
	top := layout.NewCell("X_TRAP")
	// A-B at an illegal 50nm gap; C parked exactly 70nm past B, so
	// sliding B right by 20nm (the only spread proposal) recreates the
	// violation on the other side.
	top.Add(tech.Metal2, geom.R(0, 0, 300, 70))    // A
	top.Add(tech.Metal2, geom.R(350, 0, 650, 70))  // B
	top.Add(tech.Metal2, geom.R(720, 0, 1020, 70)) // C
	// Metal1 plate pins the die well past the action.
	top.Add(tech.Metal1, geom.R(0, 200, 3000, 3000))
	return top
}

// An Outcome counts its own fixes and re-evaluations; the obs registry
// holds none of them, so the counts are the same with it on or off —
// on a chip whose fixes apply and re-score incrementally, and on a cell
// whose one fix is rejected.
func TestOutcomeIgnoresRegistry(t *testing.T) {
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, Defects: 3, RepairDefects: 2,
		MacroMix: []int{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	eval := tiling.Opts{Tile: 9000, Halo: 2000, DRC: true}
	// counts is everything of an Outcome that is a count.
	type counts struct {
		Applied, Rejected     int
		Rounds                []RoundStats
		Skipped               map[string]int
		DeltaEvals, FullEvals int
	}
	defer obs.SetEnabled(obs.Enabled())
	for _, top := range []*layout.Cell{l.Top, trapCell()} {
		var got [2]counts
		for i, on := range []bool{false, true} {
			obs.SetEnabled(on)
			out, err := Run(context.Background(), tt, top, Opts{Eval: eval, Rounds: 3})
			if err != nil {
				t.Fatalf("%s (obs %v): %v", top.Name, on, err)
			}
			got[i] = counts{len(out.Applied), len(out.Rejected), out.Rounds, out.Skipped, out.DeltaEvals, out.FullEvals}
		}
		if got[0].Applied+got[0].Rejected == 0 {
			t.Fatalf("%s: no fix applied or rejected; the check is vacuous", top.Name)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: Outcome counts differ with the registry on:\n  off: %+v\n  on:  %+v", top.Name, got[0], got[1])
		}
	}
}

// Attributions the fixer has no handle on — macro-internal offenders,
// rules with no strategy — are counted as skipped.
func TestRepairSkipsAreCounted(t *testing.T) {
	tt := tech.N45()
	inner := layout.NewCell("X_INNER")
	inner.Add(tech.Metal2, geom.R(0, 0, 300, 70))
	inner.Add(tech.Metal2, geom.R(350, 0, 650, 70)) // 50nm gap inside the macro
	top := layout.NewCell("X_SKIP")
	top.Place(inner, geom.Translate(500, 500), "u0")
	top.Add(tech.Metal1, geom.R(0, 0, 3000, 3000))

	out, err := Run(context.Background(), tt, top, Opts{
		Eval: tiling.Opts{Tile: 8000, Halo: 2000, DRC: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Applied) != 0 || len(out.Rejected) != 0 {
		t.Fatalf("macro-internal defect produced fixes: %+v / %+v", out.Applied, out.Rejected)
	}
	if out.Skipped["metal2.space.70:"+SkipNotTopLevel] == 0 {
		t.Fatalf("skip not recorded: %v", out.Skipped)
	}
	if out.After.Total != out.Before.Total {
		t.Fatalf("score moved: %v -> %v", out.Before.Total, out.After.Total)
	}
}
