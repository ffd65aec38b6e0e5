package lvs

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

func sh(l tech.Layer, r geom.Rect, n layout.NetID) layout.Shape {
	return layout.Shape{Layer: l, R: r, Net: n}
}

func TestExtractSameLayerConnectivity(t *testing.T) {
	flat := []layout.Shape{
		sh(tech.Metal1, geom.R(0, 0, 100, 70), 1),
		sh(tech.Metal1, geom.R(100, 0, 200, 70), 1), // touches first
		sh(tech.Metal1, geom.R(500, 0, 600, 70), 2), // isolated
		sh(tech.Metal2, geom.R(0, 0, 100, 70), 3),   // other layer: no connection
	}
	c := Extract(flat)
	if c.Comp[0] != c.Comp[1] {
		t.Fatalf("touching shapes not connected")
	}
	if c.Comp[0] == c.Comp[2] {
		t.Fatalf("isolated shapes connected")
	}
	if c.Comp[0] == c.Comp[3] {
		t.Fatalf("layers connected without a via")
	}
	if c.NumComponents != 3 {
		t.Fatalf("components = %d, want 3", c.NumComponents)
	}
}

func TestExtractViaStack(t *testing.T) {
	flat := []layout.Shape{
		sh(tech.Metal1, geom.R(0, 0, 100, 100), 1),
		sh(tech.Via1, geom.R(20, 20, 80, 80), 1),
		sh(tech.Metal2, geom.R(0, 0, 100, 100), 1),
		sh(tech.Via2, geom.R(20, 20, 80, 80), 1),
		sh(tech.Metal3, geom.R(0, 0, 100, 100), 1),
	}
	c := Extract(flat)
	for i := 1; i < len(flat); i++ {
		if c.Comp[i] != c.Comp[0] {
			t.Fatalf("via stack broken at %d", i)
		}
	}
	// Without the cut, the metals separate.
	noCut := []layout.Shape{flat[0], flat[2]}
	c2 := Extract(noCut)
	if c2.Comp[0] == c2.Comp[1] {
		t.Fatalf("metals connected without via")
	}
}

func TestExtractContactToPolyAndDiff(t *testing.T) {
	flat := []layout.Shape{
		sh(tech.Poly, geom.R(0, 0, 100, 100), 1),
		sh(tech.Contact, geom.R(20, 20, 80, 80), 1),
		sh(tech.Metal1, geom.R(0, 0, 100, 100), 1),
		// Diff is non-conducting for extraction (channels break it),
		// so a diff contact joins only the metal side.
		sh(tech.Diff, geom.R(500, 0, 700, 100), 2),
		sh(tech.Contact, geom.R(540, 20, 600, 80), 2),
		sh(tech.Metal1, geom.R(500, 0, 700, 100), 2),
	}
	c := Extract(flat)
	if c.Comp[0] != c.Comp[2] {
		t.Fatalf("contact did not join poly to metal1")
	}
	if c.Comp[3] != NoConduct {
		t.Fatalf("diff should be excluded from extraction")
	}
	if c.Comp[4] != c.Comp[5] {
		t.Fatalf("diff contact did not join metal1")
	}
	if c.Comp[0] == c.Comp[5] {
		t.Fatalf("independent stacks merged")
	}
}

func TestCompareDetectsShort(t *testing.T) {
	// Two different annotated nets overlapping on metal1.
	flat := []layout.Shape{
		sh(tech.Metal1, geom.R(0, 0, 100, 70), 1),
		sh(tech.Metal1, geom.R(50, 0, 150, 70), 2),
	}
	rep := CompareScoped(flat, Extract(flat), 2)
	if len(rep.Shorts) != 1 {
		t.Fatalf("shorts = %v", rep.Shorts)
	}
	s := rep.Shorts[0]
	if len(s.Nets) != 2 || s.Nets[0] != 1 || s.Nets[1] != 2 {
		t.Fatalf("short nets = %v", s.Nets)
	}
}

func TestCompareDetectsOpen(t *testing.T) {
	// One net annotated on two disconnected islands.
	flat := []layout.Shape{
		sh(tech.Metal1, geom.R(0, 0, 100, 70), 1),
		sh(tech.Metal1, geom.R(500, 0, 600, 70), 1),
	}
	rep := CompareScoped(flat, Extract(flat), 2)
	if len(rep.Opens) != 1 || rep.Opens[0].Net != 1 || rep.Opens[0].Components != 2 {
		t.Fatalf("opens = %v", rep.Opens)
	}
}

func TestCompareIgnoresNoNet(t *testing.T) {
	flat := []layout.Shape{
		sh(tech.Metal1, geom.R(0, 0, 100, 70), 1),
		sh(tech.Metal1, geom.R(50, 0, 150, 70), layout.NoNet), // fill touching a net
	}
	rep := CompareScoped(flat, Extract(flat), 2)
	if len(rep.Shorts) != 0 || len(rep.Opens) != 0 {
		t.Fatalf("fill caused LVS errors: %v", rep)
	}
}

func TestBlockHasNoShorts(t *testing.T) {
	// The generator invariant, verified by full geometric extraction
	// this time: no two annotated nets are geometrically connected.
	tt := tech.N45()
	l, err := layout.GenerateBlock(tt, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 20, MaxFan: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	rep := CompareScoped(flat, Extract(flat), l.Top.MaxNet())
	if len(rep.Shorts) != 0 {
		t.Fatalf("generator produced %d geometric shorts: %+v", len(rep.Shorts), rep.Shorts[0])
	}
	// Opens are expected (dropped congested connections leave partial
	// nets), but the count must stay a small fraction of all nets.
	st := layout.Summarize(flat)
	if len(rep.Opens) > st.NetCount/2 {
		t.Fatalf("too many opens: %d of %d nets", len(rep.Opens), st.NetCount)
	}
}

func TestViaChainSingleComponent(t *testing.T) {
	tt := tech.N45()
	cell, _ := layout.ViaChain(tt, 12)
	var flat []layout.Shape
	flat = append(flat, cell.Shapes...)
	c := Extract(flat)
	first := -1
	for i, s := range flat {
		if !conducting(s.Layer) {
			continue
		}
		if first == -1 {
			first = c.Comp[i]
		} else if c.Comp[i] != first {
			t.Fatalf("via chain not a single component (shape %d)", i)
		}
	}
}
