package layout

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func TestGenerateBlockBasics(t *testing.T) {
	tt := tech.N45()
	l, err := GenerateBlock(tt, BlockOpts{Rows: 3, RowWidth: 10000, Nets: 10, MaxFan: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if l.Top == nil {
		t.Fatal("no top cell")
	}
	flat := l.Flatten()
	st := Summarize(flat)
	if st.Shapes < 100 {
		t.Fatalf("suspiciously few shapes: %d", st.Shapes)
	}
	by := ByLayer(flat)
	for _, layer := range []tech.Layer{tech.Diff, tech.Poly, tech.Contact, tech.Metal1, tech.Via1, tech.Metal2, tech.Via2, tech.Metal3} {
		if len(by[layer]) == 0 {
			t.Errorf("no shapes on %v", layer)
		}
	}
	// Routed nets exist beyond rails.
	if st.NetCount < 10 {
		t.Errorf("net count = %d, want >= 10", st.NetCount)
	}
}

func TestGenerateBlockDeterministic(t *testing.T) {
	tt := tech.N45()
	opts := BlockOpts{Rows: 2, RowWidth: 8000, Nets: 8, MaxFan: 3, Seed: 42}
	a, err := GenerateBlock(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateBlock(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Flatten(), b.Flatten()
	if len(fa) != len(fb) {
		t.Fatalf("shape counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("shape %d differs: %+v vs %+v", i, fa[i], fb[i])
		}
	}
}

func TestGenerateBlockSeedsDiffer(t *testing.T) {
	tt := tech.N45()
	a, _ := GenerateBlock(tt, BlockOpts{Rows: 2, RowWidth: 8000, Nets: 8, MaxFan: 3, Seed: 1})
	b, _ := GenerateBlock(tt, BlockOpts{Rows: 2, RowWidth: 8000, Nets: 8, MaxFan: 3, Seed: 2})
	fa, fb := a.Flatten(), b.Flatten()
	if len(fa) == len(fb) {
		same := true
		for i := range fa {
			if fa[i] != fb[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("different seeds produced identical layouts")
		}
	}
}

func TestGenerateBlockRejectsBadOpts(t *testing.T) {
	if _, err := GenerateBlock(tech.N45(), BlockOpts{}); err == nil {
		t.Fatal("zero opts accepted")
	}
}

func TestBlockRoutingNoInterNetShorts(t *testing.T) {
	// Different signal nets must not overlap on any routing layer; this
	// is the invariant critical-area analysis depends on.
	tt := tech.N45()
	l, err := GenerateBlock(tt, BlockOpts{Rows: 4, RowWidth: 15000, Nets: 25, MaxFan: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	for _, layer := range []tech.Layer{tech.Metal2, tech.Metal3} {
		nets := NetsOn(flat, layer)
		ids := SortedNets(nets)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if ids[i] == NoNet || ids[j] == NoNet {
					continue
				}
				inter := geom.Intersect(nets[ids[i]], nets[ids[j]])
				if geom.AreaOf(inter) > 0 {
					t.Fatalf("nets %d and %d short on %v: %v", ids[i], ids[j], layer, inter[0])
				}
			}
		}
	}
}

func TestViaChainGenerator(t *testing.T) {
	tt := tech.N45()
	c, vias := ViaChain(tt, 10)
	if vias != 10 {
		t.Fatalf("via count = %d", vias)
	}
	if got := len(c.LayerRects(tech.Via1)); got != 10 {
		t.Fatalf("via rects = %d", got)
	}
	if got := len(c.LayerRects(tech.Metal2)); got != 9 {
		t.Fatalf("strap count = %d, want links-1", got)
	}
	// Every via must be enclosed by metal1 and metal2 coverage.
	m1 := geom.Normalize(c.LayerRects(tech.Metal1))
	for _, v := range c.LayerRects(tech.Via1) {
		if geom.AreaOf(geom.Intersect([]geom.Rect{v}, m1)) != v.Area() {
			t.Errorf("via %v not fully on metal1", v)
		}
	}
}

func TestPatternCells(t *testing.T) {
	tt := tech.N45()
	ls := LineSpace(tt, tech.Metal1, 70, 70, 2000, 5)
	if got := len(ls.LayerRects(tech.Metal1)); got != 5 {
		t.Fatalf("LineSpace count = %d", got)
	}
	if bb := ls.BBox(); bb.X1 != 5*140-70 {
		t.Fatalf("LineSpace extent = %v", bb)
	}
}
