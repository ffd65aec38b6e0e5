package layout

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func TestCellAddAndBBox(t *testing.T) {
	c := NewCell("X")
	c.Add(tech.Metal1, geom.R(0, 0, 100, 50))
	c.Add(tech.Metal2, geom.R(50, 0, 200, 50))
	if got := c.BBox(); got != geom.R(0, 0, 200, 50) {
		t.Fatalf("BBox = %v", got)
	}
	// Empty rects are dropped.
	c.Add(tech.Metal1, geom.R(0, 0, 0, 10))
	if len(c.Shapes) != 2 {
		t.Fatalf("empty rect was added")
	}
}

func TestBBoxIncludesInstances(t *testing.T) {
	child := NewCell("CHILD")
	child.Add(tech.Metal1, geom.R(0, 0, 10, 10))
	parent := NewCell("PARENT")
	parent.Place(child, geom.Translate(100, 100), "i0")
	if got := parent.BBox(); got != geom.R(100, 100, 110, 110) {
		t.Fatalf("parent BBox = %v", got)
	}
	// BBox cache must invalidate on further placement.
	parent.Place(child, geom.Translate(-50, 0), "i1")
	if got := parent.BBox(); got != geom.R(-50, 0, 110, 110) {
		t.Fatalf("parent BBox after second place = %v", got)
	}
}

func TestLayerRectsAndPins(t *testing.T) {
	c := NewCell("X")
	c.Add(tech.Metal1, geom.R(0, 0, 10, 10))
	c.Add(tech.Poly, geom.R(0, 0, 5, 5))
	c.AddPin("A", tech.Metal1, geom.R(20, 20, 30, 30), 2)
	if got := len(c.LayerRects(tech.Metal1)); got != 2 {
		t.Fatalf("metal1 rect count = %d", got)
	}
	if len(c.Pins) != 1 || c.Pins[0].Name != "A" || c.Pins[0].Net != 2 || c.Pins[0].Layer != tech.Metal1 {
		t.Fatalf("AddPin recorded %+v", c.Pins)
	}
}

func TestFlattenAppliesTransformsAndRemapsNets(t *testing.T) {
	tt := tech.N45()
	l := NewLayout(tt)
	child := NewCell("CHILD")
	child.AddNet(tech.Metal1, geom.R(0, 0, 10, 10), 0)
	child.AddNet(tech.Metal1, geom.R(20, 0, 30, 10), 1)
	top := NewCell("TOP")
	top.AddNet(tech.Metal2, geom.R(0, 0, 5, 5), 3)
	top.Place(child, geom.Translate(100, 0), "i0")
	top.Place(child, geom.Translate(200, 0), "i1")
	if err := l.AddCell(top); err != nil {
		t.Fatal(err)
	}
	if err := l.AddCell(child); err != nil {
		t.Fatal(err)
	}
	if err := l.SetTop("TOP"); err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	if len(flat) != 5 {
		t.Fatalf("flat shape count = %d, want 5", len(flat))
	}
	// Top net id is preserved.
	foundTop := false
	nets := map[NetID]int{}
	for _, s := range flat {
		if s.Layer == tech.Metal2 {
			foundTop = true
			if s.Net != 3 {
				t.Fatalf("top net remapped: %d", s.Net)
			}
		} else {
			nets[s.Net]++
		}
	}
	if !foundTop {
		t.Fatalf("top shape lost")
	}
	// 4 instance shapes must span 4 distinct remapped nets (2 nets x 2
	// instances), none colliding with top's net 3.
	if len(nets) != 4 {
		t.Fatalf("instance nets = %v, want 4 distinct", nets)
	}
	for n := range nets {
		if n == 3 {
			t.Fatalf("instance net collided with top net")
		}
		if n < 4 {
			t.Fatalf("instance net %d not in fresh range", n)
		}
	}
	// Transform applied?
	var xs []int64
	for _, s := range flat {
		if s.Layer == tech.Metal1 {
			xs = append(xs, s.R.X0)
		}
	}
	want := map[int64]bool{100: true, 120: true, 200: true, 220: true}
	for _, x := range xs {
		if !want[x] {
			t.Fatalf("unexpected instance shape x0=%d", x)
		}
	}
}

func TestLayoutDuplicateCell(t *testing.T) {
	l := NewLayout(tech.N45())
	if err := l.AddCell(NewCell("A")); err != nil {
		t.Fatal(err)
	}
	if err := l.AddCell(NewCell("A")); err == nil {
		t.Fatal("duplicate cell accepted")
	}
	if err := l.SetTop("NOPE"); err == nil {
		t.Fatal("SetTop of unknown cell accepted")
	}
}

func TestByLayerAndNetsOn(t *testing.T) {
	shapes := []Shape{
		{tech.Metal1, geom.R(0, 0, 10, 10), 2},
		{tech.Metal1, geom.R(20, 0, 30, 10), 2},
		{tech.Metal1, geom.R(40, 0, 50, 10), 5},
		{tech.Metal2, geom.R(0, 0, 10, 10), NoNet},
	}
	by := ByLayer(shapes)
	if len(by[tech.Metal1]) != 3 || len(by[tech.Metal2]) != 1 {
		t.Fatalf("ByLayer = %v", by)
	}
	nets := NetsOn(shapes, tech.Metal1)
	if len(nets[2]) != 2 || len(nets[5]) != 1 {
		t.Fatalf("NetsOn = %v", nets)
	}
	ids := SortedNets(nets)
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 5 {
		t.Fatalf("SortedNets = %v", ids)
	}
}

func TestSummarize(t *testing.T) {
	shapes := []Shape{
		{tech.Metal1, geom.R(0, 0, 10, 10), 2},
		{tech.Metal1, geom.R(5, 0, 15, 10), 3}, // overlaps; area counted once
	}
	st := Summarize(shapes)
	if st.Shapes != 2 || st.NetCount != 2 {
		t.Fatalf("Summarize counts wrong: %+v", st)
	}
	if st.Area[tech.Metal1] != 150 {
		t.Fatalf("Area = %d, want 150", st.Area[tech.Metal1])
	}
	if st.BBox != geom.R(0, 0, 15, 10) {
		t.Fatalf("BBox = %v", st.BBox)
	}
}

func TestStdCellLibraryGeometry(t *testing.T) {
	tt := tech.N45()
	lib := NewLib(tt)
	if len(lib.Names) != 6 {
		t.Fatalf("library size = %d", len(lib.Names))
	}
	for _, name := range lib.Names {
		c := lib.Cells[name]
		bb := c.BBox()
		if bb.Empty() {
			t.Errorf("%s: empty bbox", name)
		}
		if name == "TAP" {
			continue
		}
		// Every logic cell must have poly, diff, contacts, metal1.
		for _, l := range []tech.Layer{tech.Diff, tech.Poly, tech.Contact, tech.Metal1} {
			if len(c.LayerRects(l)) == 0 {
				t.Errorf("%s: no %v shapes", name, l)
			}
		}
		// Pins exist and their nets are signal nets.
		if len(c.Pins) < 2 {
			t.Errorf("%s: fewer than 2 pins", name)
		}
		for _, p := range c.Pins {
			if p.Net == NetVDD || p.Net == NetVSS {
				t.Errorf("%s: pin %s on a power net", name, p.Name)
			}
			if !bb.ContainsRect(p.R) {
				t.Errorf("%s: pin %s outside cell bbox", name, p.Name)
			}
		}
		// Rails present: metal1 shapes on nets 0 and 1.
		var sawVDD, sawVSS bool
		for _, s := range c.Shapes {
			if s.Layer == tech.Metal1 && s.Net == NetVDD {
				sawVDD = true
			}
			if s.Layer == tech.Metal1 && s.Net == NetVSS {
				sawVSS = true
			}
		}
		if !sawVDD || !sawVSS {
			t.Errorf("%s: missing power rails (vdd=%v vss=%v)", name, sawVDD, sawVSS)
		}
		// Gate fingers must cross both diff strips (stems and pads are
		// narrower-than-cell-height poly and are excluded).
		diff := geom.Normalize(c.LayerRects(tech.Diff))
		for _, pr := range c.LayerRects(tech.Poly) {
			if pr.Width() == tt.GateLength && pr.Height() > tt.CellHeight/2 {
				over := geom.Intersect([]geom.Rect{pr}, diff)
				if len(over) < 2 {
					t.Errorf("%s: poly finger %v crosses %d diff strips, want 2", name, pr, len(over))
				}
			}
		}
	}
}

func TestStdCellsDifferBetweenNodes(t *testing.T) {
	a := Inverter(tech.N45())
	b := Inverter(tech.N45R())
	if a.BBox() == b.BBox() {
		t.Fatalf("restricted node should change cell footprint")
	}
}
