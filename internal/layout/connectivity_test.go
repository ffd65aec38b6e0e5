package layout

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// The generators' one connectivity property — the block router draws no
// shorts — checked by geometric extraction. Shapes of one conducting
// layer that overlap or touch are one node; a cut joins the shapes it
// overlaps on the two layers it connects. The pass compares every pair of
// shapes, which a block of a few thousand affords.

// cutJoins maps each cut layer to the two layers a cut connects.
var cutJoins = map[tech.Layer][2]tech.Layer{
	tech.Contact: {tech.Poly, tech.Metal1},
	tech.Via1:    {tech.Metal1, tech.Metal2},
	tech.Via2:    {tech.Metal2, tech.Metal3},
}

// conducting reports whether shapes on l carry signal. Diffusion does
// not: every gate interrupts a diff strip, so joining it as a wire would
// merge a cell's source and drain nets.
func conducting(l tech.Layer) bool {
	_, cut := cutJoins[l]
	return cut || l == tech.Poly || l == tech.Metal1 || l == tech.Metal2 || l == tech.Metal3
}

// joined reports whether a connects to b directly: both on one
// conducting layer and touching, or a is a cut overlapping b on a layer
// it connects.
func joined(a, b Shape) bool {
	if a.Layer == b.Layer {
		return conducting(a.Layer) && a.R.Distance(b.R) == 0
	}
	on, cut := cutJoins[a.Layer]
	return cut && (b.Layer == on[0] || b.Layer == on[1]) && a.R.Overlaps(b.R)
}

// components gives each shape the root of its connected component, or -1
// on a layer that does not conduct.
func components(flat []Shape) []int {
	parent := make([]int, len(flat))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, a := range flat {
		for j := i + 1; j < len(flat); j++ {
			if joined(a, flat[j]) || joined(flat[j], a) {
				parent[find(j)] = find(i)
			}
		}
	}
	comp := make([]int, len(flat))
	for i, s := range flat {
		comp[i] = -1
		if conducting(s.Layer) {
			comp[i] = find(i)
		}
	}
	return comp
}

// shortsAndOpens compares the extracted components with the drawn nets
// numbered up to maxNet: a short is the sorted nets one component
// carries, when there are two or more, and an open is a net split across
// components. Unannotated shapes constrain nothing. Flatten numbers an
// instance's internal nets above its parent's, and a routed top-level
// net legitimately joins the pin nets of the cells it connects, so a
// block is checked with its top cell's MaxNet.
func shortsAndOpens(flat []Shape, maxNet NetID) (shorts [][]NetID, opens []NetID) {
	comp := components(flat)
	netsOf := map[int][]NetID{}
	compsOf := map[NetID]map[int]bool{}
	for i, s := range flat {
		if comp[i] < 0 || s.Net == NoNet || s.Net > maxNet {
			continue
		}
		if compsOf[s.Net] == nil {
			compsOf[s.Net] = map[int]bool{}
		}
		if !compsOf[s.Net][comp[i]] {
			compsOf[s.Net][comp[i]] = true
			netsOf[comp[i]] = append(netsOf[comp[i]], s.Net)
		}
	}
	for _, nets := range netsOf {
		if len(nets) > 1 {
			slices.Sort(nets)
			shorts = append(shorts, nets)
		}
	}
	for n, cs := range compsOf {
		if len(cs) > 1 {
			opens = append(opens, n)
		}
	}
	slices.SortFunc(shorts, slices.Compare)
	slices.Sort(opens)
	return shorts, opens
}

func sh(l tech.Layer, x0, y0, x1, y1 int64, n NetID) Shape {
	return Shape{Layer: l, R: geom.R(x0, y0, x1, y1), Net: n}
}

// defectCase is a drawn layout and the shorts and opens shortsAndOpens
// must report on it, checking nets up to 2.
type defectCase struct {
	name   string
	flat   []Shape
	shorts [][]NetID
	opens  []NetID
}

func checkDefects(t *testing.T, cases []defectCase) {
	t.Helper()
	for _, c := range cases {
		shorts, opens := shortsAndOpens(c.flat, 2)
		if !reflect.DeepEqual(shorts, c.shorts) || !reflect.DeepEqual(opens, c.opens) {
			t.Errorf("%s: shorts %v opens %v, want %v and %v", c.name, shorts, opens, c.shorts, c.opens)
		}
	}
}

func TestCompareDetectsShort(t *testing.T) {
	checkDefects(t, []defectCase{
		{"overlapping nets short", []Shape{
			sh(tech.Metal1, 0, 0, 100, 70, 1),
			sh(tech.Metal1, 50, 0, 150, 70, 2),
		}, [][]NetID{{1, 2}}, nil},
		{"touching nets short", []Shape{
			sh(tech.Metal1, 0, 0, 100, 70, 1),
			sh(tech.Metal1, 100, 0, 200, 70, 2),
			sh(tech.Metal1, 500, 0, 600, 70, 3),
		}, [][]NetID{{1, 2}}, nil},
	})
}

func TestCompareDetectsOpen(t *testing.T) {
	checkDefects(t, []defectCase{
		{"islands of one net are an open", []Shape{
			sh(tech.Metal1, 0, 0, 100, 70, 1),
			sh(tech.Metal1, 500, 0, 600, 70, 1),
		}, nil, []NetID{1}},
		{"layers without a cut stay apart", []Shape{
			sh(tech.Metal1, 0, 0, 100, 100, 1),
			sh(tech.Metal2, 0, 0, 100, 100, 1),
		}, nil, []NetID{1}},
	})
}

func TestCompareIgnoresNoNet(t *testing.T) {
	checkDefects(t, []defectCase{
		{"unannotated fill touching a net", []Shape{
			sh(tech.Metal1, 0, 0, 100, 70, 1),
			sh(tech.Metal1, 50, 0, 150, 70, NoNet),
		}, nil, nil},
		{"nets above maxNet are not checked", []Shape{
			sh(tech.Metal1, 0, 0, 100, 70, 1),
			sh(tech.Metal1, 50, 0, 150, 70, 3),
		}, nil, nil},
	})
}

func TestExtractSameLayerConnectivity(t *testing.T) {
	comp := components([]Shape{
		sh(tech.Metal1, 0, 0, 100, 70, 1),
		sh(tech.Metal1, 100, 0, 200, 70, 1), // touches the first
		sh(tech.Metal1, 500, 0, 600, 70, 2), // isolated
		sh(tech.Metal2, 0, 0, 100, 70, 3),   // another layer, no cut
	})
	if comp[0] != comp[1] {
		t.Error("touching shapes not joined")
	}
	if comp[0] == comp[2] {
		t.Error("isolated shapes joined")
	}
	if comp[0] == comp[3] {
		t.Error("layers joined without a cut")
	}
	if n := len(map[int]bool{comp[0]: true, comp[1]: true, comp[2]: true, comp[3]: true}); n != 3 {
		t.Errorf("%d components, want 3", n)
	}
}

func TestExtractViaStack(t *testing.T) {
	stack := []Shape{
		sh(tech.Metal1, 0, 0, 100, 100, 1),
		sh(tech.Via1, 20, 20, 80, 80, NoNet),
		sh(tech.Metal2, 0, 0, 100, 100, NoNet),
		sh(tech.Via2, 20, 20, 80, 80, NoNet),
		sh(tech.Metal3, 0, 0, 100, 100, 1),
	}
	comp := components(stack)
	for i, c := range comp {
		if c != comp[0] {
			t.Fatalf("via stack broken at shape %d on %v", i, stack[i].Layer)
		}
	}
	checkDefects(t, []defectCase{
		{"a via stack joins metal1 to metal3", stack, nil, nil},
		{"without the cuts the metals separate", []Shape{stack[0], stack[2], stack[4]}, nil, []NetID{1}},
	})
}

func TestExtractContactToPolyAndDiff(t *testing.T) {
	flat := []Shape{
		sh(tech.Poly, 0, 0, 100, 100, 1),
		sh(tech.Contact, 20, 20, 80, 80, NoNet),
		sh(tech.Metal1, 0, 0, 100, 100, 1),
		// A diffusion contact joins only its metal side.
		sh(tech.Diff, 500, 0, 700, 100, 2),
		sh(tech.Contact, 540, 20, 600, 80, NoNet),
		sh(tech.Metal1, 500, 0, 700, 100, 2),
	}
	comp := components(flat)
	if comp[0] != comp[2] {
		t.Error("contact did not join poly to metal1")
	}
	if comp[3] != -1 {
		t.Error("diffusion joined as a conductor")
	}
	if comp[4] != comp[5] {
		t.Error("diffusion contact did not join metal1")
	}
	if comp[0] == comp[5] {
		t.Error("independent stacks joined")
	}
	checkDefects(t, []defectCase{
		{"a contact joins poly to metal1", flat[:3], nil, nil},
		{"diffusion does not conduct", []Shape{
			sh(tech.Metal1, 0, 0, 100, 100, 1),
			sh(tech.Contact, 20, 20, 80, 80, NoNet),
			sh(tech.Diff, 0, 0, 700, 100, 2),
			sh(tech.Contact, 620, 20, 680, 80, NoNet),
			sh(tech.Metal1, 600, 0, 700, 100, 1),
		}, nil, []NetID{1}},
	})
}

func TestBlockHasNoShorts(t *testing.T) {
	tt := tech.N45()
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			l, err := GenerateBlock(tt, BlockOpts{Rows: 3, RowWidth: 10000, Nets: 20, MaxFan: 4, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			maxNet := l.Top.MaxNet()
			shorts, opens := shortsAndOpens(l.Flatten(), maxNet)
			if len(shorts) != 0 {
				t.Fatalf("the generator drew %d shorts, the first joins nets %v", len(shorts), shorts[0])
			}
			// Opens are expected (a congested connection the router drops
			// leaves a net in pieces), but only a few of the top cell's
			// nets, which are numbered from 0.
			if nets := int(maxNet) + 1; len(opens) > nets/2 {
				t.Fatalf("%d opens of %d nets", len(opens), nets)
			}
		})
	}
}

func TestViaChainSingleComponent(t *testing.T) {
	cell, _ := ViaChain(tech.N45(), 12)
	first := -1
	for i, c := range components(cell.Shapes) {
		if c < 0 {
			continue
		}
		if first < 0 {
			first = c
		}
		if c != first {
			t.Fatalf("via chain is not one component: shape %d on %v", i, cell.Shapes[i].Layer)
		}
	}
	if first < 0 {
		t.Fatal("via chain has no conducting shape")
	}
}
