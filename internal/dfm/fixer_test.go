package dfm

import (
	"context"
	"slices"
	"testing"

	"repro/internal/dpt"
	"repro/internal/dvia"
	"repro/internal/fill"
	"repro/internal/layout"
	"repro/internal/opc"
	"repro/internal/tech"
)

// idempotentEps bounds the gain a fixer may show on its primary metric
// when applied to its own output: production gives a control for free,
// since a fix that has done its work finds nothing left to fix.
const idempotentEps = 0.01

// secondGain applies fix to in and then to its own output, and returns
// the first output and the primary metric's gain of the second
// application over the first.
func secondGain[L any](t *testing.T, name string, in L,
	fix func(context.Context, *tech.Tech, L) (L, cost, error),
	measure func(context.Context, *tech.Tech, L) ([]float64, error)) (L, float64) {
	t.Helper()
	ctx, tt := context.Background(), tech.N45()
	d, _ := techniqueNamed(name)
	once, _, err := fix(ctx, tt, in)
	if err != nil {
		t.Fatal(err)
	}
	twice, _, err := fix(ctx, tt, once)
	if err != nil {
		t.Fatal(err)
	}
	before, err := measure(ctx, tt, once)
	if err != nil {
		t.Fatal(err)
	}
	after, err := measure(ctx, tt, twice)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range d.metrics {
		if m.Primary {
			m.Before, m.After = before[i], after[i]
			t.Logf("%s applied to its own output: %s %.6g -> %.6g", name, m.Name, m.Before, m.After)
			return once, m.Gain()
		}
	}
	t.Fatalf("%s has no primary metric", name)
	return once, 0
}

// TestFixersAreIdempotent applies each fixer to its own output at the
// scorecard's seed 11: the second application must gain less than
// idempotentEps on the primary metric, and find nothing to do where
// the fixer can say so.
func TestFixersAreIdempotent(t *testing.T) {
	ctx, tt := context.Background(), tech.N45()
	opts := DefaultBlock()
	opts.Seed = 11

	t.Run("redundant-via", func(t *testing.T) {
		flat, err := flatBlock(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		once, gain := secondGain(t, "redundant-via", flat, viaFix, viaMeasure)
		if gain >= idempotentEps {
			t.Errorf("a second insertion gains %.4f", gain)
		}
		if rep, err := dvia.Insert(ctx, once, tt); err != nil || rep.Inserted != 0 {
			t.Errorf("a second insertion doubled %d more vias (err %v)", rep.Inserted, err)
		}
	})

	t.Run("dummy-fill", func(t *testing.T) {
		d, err := dieFixture(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		once, gain := secondGain(t, "dummy-fill", d, fillFix, fillMeasure)
		if gain >= idempotentEps {
			t.Errorf("a second fill gains %.4f", gain)
		}
		if tiles := fill.Synthesize(once.m1, once.extent, fillWindow, fillStep); len(tiles) != 0 {
			t.Errorf("a second fill placed %d more tiles", len(tiles))
		}
	})

	t.Run("model-opc", func(t *testing.T) {
		// The loop's state is its fragments' biases, so the loop run
		// for twice its iterations is the loop restarted from its
		// converged mask.
		p, _ := opcFixture(tt, opts)
		mo := opc.DefaultModelOpts()
		once, err := opc.ModelBased(ctx, p.drawn, p.window, tt.Optics, mo)
		if err != nil {
			t.Fatal(err)
		}
		mo.Iterations *= 2
		twice, err := opc.ModelBased(ctx, p.drawn, p.window, tt.Optics, mo)
		if err != nil {
			t.Fatal(err)
		}
		rms := twice.RMSHistory
		m := Metric{Before: rms[len(once.RMSHistory)-1], After: rms[len(rms)-1]}
		t.Logf("model-opc restarted from its converged mask: RMS EPE %.6g -> %.6g", m.Before, m.After)
		if g := m.Gain(); g >= idempotentEps {
			t.Errorf("the restarted loop gains %.4f on RMS EPE", g)
		}
		// A move under half a pixel is below what the image resolves.
		tol := int64(tt.Optics.GridNM / 2)
		var worst int64
		for i, f := range twice.Fragments {
			d := f.Bias - once.Fragments[i].Bias
			worst = max(worst, d, -d)
		}
		t.Logf("model-opc restarted: largest fragment move %d nm", worst)
		if worst > tol {
			t.Errorf("the restarted loop moved a fragment %d nm, tolerance %d nm", worst, tol)
		}
	})

	t.Run("sraf", func(t *testing.T) {
		p, _ := srafFixture(tt, opts)
		once, gain := secondGain(t, "sraf", p, srafFix, srafMeasure)
		if gain >= idempotentEps {
			t.Errorf("a second assist pass gains %.4f", gain)
		}
		if mask := once.masks[0].rects; !slices.Equal(opc.WithSRAF(mask), mask) {
			t.Errorf("a second assist pass grows the mask from %d to %d rects", len(mask), len(opc.WithSRAF(mask)))
		}
	})

	t.Run("dpt-decomposition", func(t *testing.T) {
		// A decomposed layer is two layers that each print in one
		// exposure: decomposing either again finds no adjacency to
		// separate, so no conflict.
		flat, err := flatBlock(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		stitched := dpt.Decompose(layout.ByLayer(flat)[tech.Metal2], dptSameMask(tt), true, 40)
		for m := range 2 {
			again := dpt.Decompose(stitched.MaskRects(m), dptSameMask(tt), true, 40)
			if again.Edges != 0 || len(again.Conflicts) != 0 {
				t.Errorf("mask %d decomposed again: %d adjacencies, %d conflicts", m, again.Edges, len(again.Conflicts))
			}
		}
	})
}
