package dfm

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dpt"
	"repro/internal/dvia"
	"repro/internal/fill"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/yield"
)

// The techniques that build a geom.Index lay it over the extent of
// their own input. Moved far from the origin, the block they are given
// must give the same answer, moved: via doubling, critical-area Monte
// Carlo, DPT decomposition and fill synthesis. The offset is a multiple
// of fill's tile pitch, whose lattice is anchored at the origin.
func TestTechniquesTranslationInvariant(t *testing.T) {
	tt := tech.N45()
	opts := DefaultBlock()
	opts.Seed = 11
	l, err := layout.GenerateBlock(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	const d = 500 << 31
	for _, off := range []geom.Point{geom.Pt(d, -d), geom.Pt(-d, d)} {
		moved := make([]layout.Shape, len(flat))
		for i, s := range flat {
			moved[i] = layout.Shape{Layer: s.Layer, R: s.R.Translate(off), Net: s.Net}
		}
		want, got := techniqueAnswers(t, tt, flat, geom.Pt(0, 0)), techniqueAnswers(t, tt, moved, off)
		if !slices.Equal(got, want) {
			t.Fatalf("moved by %v: answers differ\n got %v\nwant %v", off, got, want)
		}
	}
}

// techniqueAnswers runs the four techniques over flat, a block moved by
// off, and returns their answers moved back, one line each.
func techniqueAnswers(t *testing.T, tt *tech.Tech, flat []layout.Shape, off geom.Point) []string {
	t.Helper()
	back := geom.Pt(-off.X, -off.Y)
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	rep, err := dvia.Insert(context.Background(), flat, tt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted == 0 {
		t.Fatalf("dvia inserted nothing of %d candidates", rep.Candidates)
	}
	add("dvia %d of %d", rep.Inserted, rep.Candidates)
	for _, p := range rep.Placed {
		add("via %v %v %v %d", p.Via, p.Cut.Translate(back), p.Origin.Translate(back), p.Net)
		for _, s := range p.Shapes {
			add("  %v %v %d", s.Layer, s.R.Translate(back), s.Net)
		}
	}

	mc := yield.MonteCarlo(flat, tech.Metal2, tt.Defects, 20000, rand.New(rand.NewSource(5)))
	if mc.Shorts == 0 || mc.Opens == 0 {
		t.Fatalf("Monte Carlo drew %d shorts and %d opens", mc.Shorts, mc.Opens)
	}
	add("mc %+v", mc)

	m1 := layout.ByLayer(flat)[tech.Metal1]
	res := dpt.Decompose(m1, 100, true, 20)
	if res.Edges == 0 {
		t.Fatal("dpt found no conflict edges")
	}
	add("dpt %d edges, %d stitches, conflicts %v", res.Edges, res.Stitches, res.Conflicts)
	for _, f := range res.Features {
		add("feature %d mask %d box %v", f.ID, f.Mask, f.BBox.Translate(back))
		for _, r := range f.Rects {
			add("  %v", r.Translate(back))
		}
	}

	tiles := fill.Synthesize(m1, geom.BBoxOf(m1).Bloat(6000), 3000, 1500)
	if len(tiles) == 0 {
		t.Fatal("fill placed no tiles")
	}
	add("fill %d tiles", len(tiles))
	for _, r := range tiles {
		add("  %v", r.Translate(back))
	}
	return out
}
