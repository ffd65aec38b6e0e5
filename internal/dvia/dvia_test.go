package dvia

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	yieldpkg "repro/internal/yield"
)

// singleVia builds a minimal single-cut via with generous surrounding
// metal, returning the flat shapes.
func singleVia(t *tech.Tech, at geom.Point, net layout.NetID) []layout.Shape {
	r := t.Rules[tech.Via1]
	cut := geom.R(at.X, at.Y, at.X+r.ViaSize, at.Y+r.ViaSize)
	return []layout.Shape{
		{Layer: tech.Via1, R: cut, Net: net},
		{Layer: tech.Metal1, R: cut.Bloat(300), Net: net},
		{Layer: tech.Metal2, R: cut.Bloat(300), Net: net},
	}
}

func TestInsertDoublesIsolatedVia(t *testing.T) {
	tt := tech.N45()
	flat := singleVia(tt, geom.Pt(1000, 1000), 5)
	rep, err := Insert(context.Background(), flat, tt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 1 {
		t.Fatalf("candidates = %d", rep.Candidates)
	}
	if rep.Inserted != 1 {
		t.Fatalf("inserted = %d", rep.Inserted)
	}
	if rep.Coverage != 1 {
		t.Fatalf("coverage = %v", rep.Coverage)
	}
	// The added cut pairs up under the redundancy counter.
	after := append(flat, rep.AddedShapes...)
	single, paired := yieldpkg.CountViaRedundancy(after, tt)
	if single != 0 || paired != 1 {
		t.Fatalf("after insertion: single=%d paired=%d", single, paired)
	}
}

func TestInsertSkipsAlreadyPaired(t *testing.T) {
	tt := tech.N45()
	r := tt.Rules[tech.Via1]
	at := geom.Pt(1000, 1000)
	cut1 := geom.R(at.X, at.Y, at.X+r.ViaSize, at.Y+r.ViaSize)
	cut2 := cut1.Translate(geom.Pt(r.ViaSize+r.ViaSpace, 0))
	flat := []layout.Shape{
		{Layer: tech.Via1, R: cut1, Net: 5},
		{Layer: tech.Via1, R: cut2, Net: 5},
		{Layer: tech.Metal1, R: cut1.Union(cut2).Bloat(300), Net: 5},
		{Layer: tech.Metal2, R: cut1.Union(cut2).Bloat(300), Net: 5},
	}
	rep, err := Insert(context.Background(), flat, tt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 0 || rep.Inserted != 0 {
		t.Fatalf("paired via re-processed: %+v", rep)
	}
}

func TestInsertRespectsNeighborSpacing(t *testing.T) {
	tt := tech.N45()
	r := tt.Rules[tech.Via1]
	// A single via hemmed in by other-net cuts on all four sides at
	// exactly the position the second cut would take.
	at := geom.Pt(1000, 1000)
	cut := geom.R(at.X, at.Y, at.X+r.ViaSize, at.Y+r.ViaSize)
	step := r.ViaSize + r.ViaSpace
	flat := []layout.Shape{
		{Layer: tech.Via1, R: cut, Net: 5},
		{Layer: tech.Metal1, R: cut.Bloat(500), Net: 5},
		{Layer: tech.Metal2, R: cut.Bloat(500), Net: 5},
	}
	// Blockers sit 40nm beyond each candidate position (closer than
	// the 80nm cut spacing).
	for _, d := range []geom.Point{{X: step + 100}, {X: -(step + 100)}, {Y: step + 100}, {Y: -(step + 100)}} {
		blocker := cut.Translate(d)
		flat = append(flat, layout.Shape{Layer: tech.Via1, R: blocker, Net: 9})
	}
	rep, err := Insert(context.Background(), flat, tt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted != 0 {
		t.Fatalf("inserted a cut with illegal spacing: %+v", rep.AddedShapes)
	}
}

func TestInsertOnBlockIsDRCLegal(t *testing.T) {
	tt := tech.N45()
	l, err := layout.GenerateBlock(tt, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 15, MaxFan: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	beforeRes := drc.StandardDeck(tt).Run(drc.NewContext(tt, flat))

	rep, err := Insert(context.Background(), flat, tt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted == 0 {
		t.Fatalf("no vias doubled on a routed block (candidates=%d)", rep.Candidates)
	}
	after := append(append([]layout.Shape{}, flat...), rep.AddedShapes...)
	afterRes := drc.StandardDeck(tt).Run(drc.NewContext(tt, after))

	// Insertion must not add DRC violations (tolerate a tiny delta from
	// enclosure interactions with pre-existing marginalities).
	delta := afterRes.Count() - beforeRes.Count()
	if delta > rep.Inserted/10 {
		t.Fatalf("insertion added %d DRC violations (before=%d after=%d)",
			delta, beforeRes.Count(), afterRes.Count())
	}
}

func TestEvaluateInsertionImprovesYield(t *testing.T) {
	tt := tech.N45()
	// Raise the fail probability so the effect is visible at block scale.
	tt.Defects.ViaFailProb = 1e-4
	l, err := layout.GenerateBlock(tt, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 15, MaxFan: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	g, err := EvaluateInsertion(context.Background(), l.Flatten(), tt)
	if err != nil {
		t.Fatal(err)
	}
	if g.After <= g.Before {
		t.Fatalf("via yield did not improve: %v -> %v", g.Before, g.After)
	}
	if g.SinglesAfter >= g.SinglesBefore {
		t.Fatalf("single count did not drop: %d -> %d", g.SinglesBefore, g.SinglesAfter)
	}
	if g.AddedCuts != g.Report.Inserted || g.AddedCuts == 0 {
		t.Fatalf("added-cut accounting wrong: %+v", g)
	}
}

// TestInsertDeterministicUnderInputOrder pins the layer-then-coordinate
// insertion order: shuffling the flat shape list must not change one
// bit of the report. Repair deltas are built from these shapes, so the
// whole score-and-repair loop inherits this reproducibility.
func TestInsertDeterministicUnderInputOrder(t *testing.T) {
	tt := tech.N45()
	l, err := layout.GenerateBlock(tt, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 15, MaxFan: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	ref, err := Insert(context.Background(), flat, tt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Inserted == 0 {
		t.Fatal("no insertions on the routed block; test needs a non-trivial report")
	}
	if len(ref.Placed) != ref.Inserted {
		t.Fatalf("Placed groups %d insertions, Inserted = %d", len(ref.Placed), ref.Inserted)
	}
	var grouped int
	for _, ins := range ref.Placed {
		grouped += len(ins.Shapes)
	}
	if grouped != len(ref.AddedShapes) {
		t.Fatalf("Placed shapes %d != AddedShapes %d", grouped, len(ref.AddedShapes))
	}
	rnd := rand.New(rand.NewSource(7))
	for run := 0; run < 3; run++ {
		shuf := append([]layout.Shape{}, flat...)
		rnd.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		got, err := Insert(context.Background(), shuf, tt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d: report differs under shuffled input", run)
		}
	}
}

// TestInsertCanceledContext pins the cancellation contract: a canceled
// context aborts with the error and an empty report.
func TestInsertCanceledContext(t *testing.T) {
	tt := tech.N45()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	flat := singleVia(tt, geom.Pt(1000, 1000), 5)
	if _, err := Insert(ctx, flat, tt); err == nil {
		t.Fatal("canceled context did not abort Insert")
	}
	if _, err := EvaluateInsertion(ctx, flat, tt); err == nil {
		t.Fatal("canceled context did not abort EvaluateInsertion")
	}
}
