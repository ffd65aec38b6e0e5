package layout

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func TestGenerateChipBasics(t *testing.T) {
	tt := tech.N45()
	l, info, err := GenerateChip(tt, ChipOpts{Seed: 11, Slots: 3, Defects: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.Slots != 3 || info.SlotPitch != 24000 {
		t.Fatalf("info = %+v", info)
	}
	if want := geom.R(0, 0, 72000, 72000); info.Die != want {
		t.Fatalf("die = %v, want %v", info.Die, want)
	}
	// The summary walk must agree with an actual flatten, and the seal
	// ring pins the cell bbox (and each routing layer's bbox) to exactly
	// the die: that grid alignment is what the tiling cache keys rely on.
	flat := l.Flatten()
	want := flatExtent(flat)
	if got := *Extents(l.Top)[l.Top]; got != want {
		t.Fatalf("Extents = %+v, flatten = %+v", got, want)
	}
	if got := l.Top.BBox(); got != want.BBox || got != info.Die {
		t.Fatalf("top bbox = %v, flatten %v, want die %v", got, want.BBox, info.Die)
	}
	for _, layer := range []tech.Layer{tech.Metal1, tech.Metal2, tech.Metal3} {
		if got := want.Layer[layer]; got != info.Die {
			t.Fatalf("%v bbox = %v, want die %v", layer, got, info.Die)
		}
	}
	if info.Rects != want.Rects {
		t.Fatalf("info.Rects = %d, flatten = %d", info.Rects, want.Rects)
	}
	placed := 0
	for _, n := range info.MacroCounts {
		placed += n
	}
	if placed != 9 {
		t.Fatalf("placed %d macros, want 9: %v", placed, info.MacroCounts)
	}
	if len(info.DefectBoxes) != 4 {
		t.Fatalf("defect boxes = %d, want 4", len(info.DefectBoxes))
	}
	// Each injected defect is a metal2 pair at a 50nm gap: both rects
	// must exist in the flat view, abutting the recorded gap box.
	byRect := make(map[geom.Rect]bool)
	for _, s := range flat {
		if s.Layer == tech.Metal2 {
			byRect[s.R] = true
		}
	}
	for _, gap := range info.DefectBoxes {
		left := geom.R(gap.X0-300, gap.Y0, gap.X0, gap.Y1)
		right := geom.R(gap.X1, gap.Y0, gap.X1+300, gap.Y1)
		if !byRect[left] || !byRect[right] {
			t.Fatalf("defect pair around %v missing from flat view", gap)
		}
	}
}

// flatExtent is the oracle of Extents: the bbox of every flattened
// shape, of each layer's, and their count.
func flatExtent(flat []Shape) Extent {
	var x Extent
	for _, s := range flat {
		x.BBox = x.BBox.Union(s.R)
		x.Layer[s.Layer] = x.Layer[s.Layer].Union(s.R)
	}
	x.Rects = int64(len(flat))
	return x
}

func TestGenerateChipDeterministic(t *testing.T) {
	tt := tech.N45()
	a, ia, err := GenerateChip(tt, ChipOpts{Seed: 5, Slots: 2, Defects: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, ib, err := GenerateChip(tt, ChipOpts{Seed: 5, Slots: 2, Defects: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ia.Rects != ib.Rects || len(ia.DefectBoxes) != len(ib.DefectBoxes) {
		t.Fatalf("same seed, different info: %+v vs %+v", ia, ib)
	}
	fa, fb := a.Flatten(), b.Flatten()
	if len(fa) != len(fb) {
		t.Fatalf("same seed, different flat counts: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Layer != fb[i].Layer || fa[i].R != fb[i].R {
			t.Fatalf("same seed, shape %d differs: %+v vs %+v", i, fa[i], fb[i])
		}
	}
	// A different seed reshuffles the floorplan.
	_, ic, err := GenerateChip(tt, ChipOpts{Seed: 6, Slots: 2, Defects: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ic.Rects == ia.Rects {
		t.Logf("seeds 5 and 6 happen to share a rect count (%d); plausible but rare", ia.Rects)
	}
}

func TestGenerateChipTargetRects(t *testing.T) {
	_, info, err := GenerateChip(tech.N45(), ChipOpts{Seed: 1, TargetRects: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// The grid is sized from the weighted-average macro rect count, so
	// the realized count lands near the target without flattening.
	if info.Rects < 500_000 || info.Rects > 2_000_000 {
		t.Fatalf("info.Rects = %d, want within 2x of 1M", info.Rects)
	}
	if info.Slots < 2 {
		t.Fatalf("slots = %d", info.Slots)
	}
}

func TestGenerateChipErrors(t *testing.T) {
	tt := tech.N45()
	cases := []ChipOpts{
		{Seed: 1}, // neither Slots nor TargetRects
		{Seed: 1, Slots: 2, MacroMix: []int{1, 1}},       // wrong mix length
		{Seed: 1, Slots: 2, MacroMix: []int{0, 0, 0, 0}}, // zero-sum mix
		{Seed: 1, Slots: 2, MacroMix: []int{-1, 1, 1, 1}},
		{Seed: 1, Slots: 2, SlotPitch: 10000}, // sram cannot fit
	}
	for i, o := range cases {
		if _, _, err := GenerateChip(tt, o); err == nil {
			t.Fatalf("case %d (%+v): want error", i, o)
		}
	}
}

// Flatten through a depth >= 3 hierarchy with rotated and mirrored
// intermediate instances: composed transforms must equal applying the
// parent transform after the child transform, shape by shape.
func TestFlattenDeepHierarchyTransforms(t *testing.T) {
	leafRects := []geom.Rect{geom.R(0, 0, 10, 20), geom.R(30, 5, 45, 25)}
	leaf := NewCell("LEAF")
	for _, r := range leafRects {
		leaf.Add(tech.Metal1, r)
	}
	midTs := []geom.Transform{
		{Orient: geom.R90, Offset: geom.Pt(100, 0)},
		{Orient: geom.MX, Offset: geom.Pt(0, 300)},
	}
	mid := NewCell("MID")
	for i, mt := range midTs {
		mid.Place(leaf, mt, "l"+string(rune('0'+i)))
	}
	topTs := []geom.Transform{
		{Orient: geom.MY90, Offset: geom.Pt(500, 50)},
		{Orient: geom.R270, Offset: geom.Pt(-200, 1000)},
	}
	top := NewCell("TOP")
	for i, pt := range topTs {
		top.Place(mid, pt, "m"+string(rune('0'+i)))
	}

	flat := (&Layout{Top: top}).Flatten()
	if len(flat) != len(topTs)*len(midTs)*len(leafRects) {
		t.Fatalf("flat count = %d, want %d", len(flat), len(topTs)*len(midTs)*len(leafRects))
	}
	// Sequential application is the ground truth for composition.
	want := make(map[geom.Rect]int)
	for _, pt := range topTs {
		for _, mt := range midTs {
			for _, r := range leafRects {
				want[pt.ApplyRect(mt.ApplyRect(r))]++
			}
		}
	}
	got := make(map[geom.Rect]int)
	for _, s := range flat {
		got[s.R]++
	}
	if len(got) != len(want) {
		t.Fatalf("flat rect set has %d distinct rects, want %d", len(got), len(want))
	}
	for r, n := range want {
		if got[r] != n {
			t.Fatalf("rect %v appears %d times, want %d", r, got[r], n)
		}
	}
}

// Net remapping through a deep hierarchy: every instance path gets a
// fresh net space — the same drawn net in N placed copies must come
// out as N distinct nets, none colliding with the top-level nets.
func TestFlattenDeepNetRemapUniqueness(t *testing.T) {
	leaf := NewCell("LEAF")
	leaf.AddNet(tech.Metal1, geom.R(0, 0, 10, 10), 0)
	leaf.AddNet(tech.Metal1, geom.R(20, 0, 30, 10), 1)
	mid := NewCell("MID")
	mid.AddNet(tech.Metal2, geom.R(0, 0, 5, 5), 0)
	mid.Place(leaf, geom.Translate(100, 0), "l0")
	mid.Place(leaf, geom.Translate(200, 0), "l1")
	top := NewCell("TOP")
	top.AddNet(tech.Metal3, geom.R(0, 0, 5, 5), 7)
	top.Place(mid, geom.Translate(0, 100), "m0")
	top.Place(mid, geom.Translate(0, 200), "m1")

	flat := (&Layout{Top: top}).Flatten()
	// 1 top shape + 2 mids x (1 shape + 2 leaves x 2 shapes).
	if len(flat) != 11 {
		t.Fatalf("flat count = %d, want 11", len(flat))
	}
	seen := make(map[NetID]int)
	for _, s := range flat {
		seen[s.Net]++
	}
	// Distinct net count: top's 7, two mid locals, and 2x2 leaf copies
	// with 2 nets each = 1 + 2 + 8.
	if len(seen) != 11 {
		t.Fatalf("distinct nets = %d (%v), want 11", len(seen), seen)
	}
	for n, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("net %d shared across %d shapes; instance copies must not alias", n, cnt)
		}
	}
	if seen[7] != 1 {
		t.Fatalf("top net 7 lost: %v", seen)
	}
}

// Litho defect injection: sites are recorded, deterministic, inside
// the die margin band, and strictly additive — a chip generated with
// HotspotDefects must be the zero-defect chip plus exactly the
// injected metal1 rects, and the spacing-defect placement must not
// shift (the site permutation is drawn after the spacing one).
func TestGenerateChipHotspotDefects(t *testing.T) {
	tt := tech.N45()
	base := ChipOpts{Seed: 11, Slots: 3, Defects: 4}
	hot := base
	hot.HotspotDefects = 3

	l0, i0, err := GenerateChip(tt, base)
	if err != nil {
		t.Fatal(err)
	}
	l1, i1, err := GenerateChip(tt, hot)
	if err != nil {
		t.Fatal(err)
	}
	if len(i0.HotspotSites) != 0 {
		t.Fatalf("zero-defect chip recorded sites: %v", i0.HotspotSites)
	}
	if len(i1.HotspotSites) != 3 {
		t.Fatalf("recorded %d sites, want 3", len(i1.HotspotSites))
	}
	// Sites alternate neck/pad-pair and stay on metal1 inside the die.
	for k, s := range i1.HotspotSites {
		want := "pinch"
		if k%2 == 1 {
			want = "bridge"
		}
		if s.Kind != want || s.Layer != tech.Metal1 {
			t.Fatalf("site %d = %+v, want %s on metal1", k, s, want)
		}
		if !i1.Die.ContainsRect(s.Box) {
			t.Fatalf("site %d box %v outside die %v", k, s.Box, i1.Die)
		}
	}
	// Spacing defects must not move: the hotspot permutation is drawn
	// after the spacing-defect one.
	if len(i1.DefectBoxes) != len(i0.DefectBoxes) {
		t.Fatalf("spacing defects changed: %d vs %d", len(i1.DefectBoxes), len(i0.DefectBoxes))
	}
	for i := range i0.DefectBoxes {
		if i0.DefectBoxes[i] != i1.DefectBoxes[i] {
			t.Fatalf("spacing defect %d moved: %v vs %v", i, i0.DefectBoxes[i], i1.DefectBoxes[i])
		}
	}
	// Strictly additive: flat(hot) = flat(base) + injected metal1 rects,
	// and every added rect lies inside a recorded site box.
	count := func(flat []Shape) map[Shape]int {
		m := make(map[Shape]int)
		for _, s := range flat {
			s.Net = 0
			m[s]++
		}
		return m
	}
	f0 := count(l0.Flatten())
	f1 := count(l1.Flatten())
	added := 0
	for s, n := range f1 {
		extra := n - f0[s]
		if extra < 0 {
			t.Fatalf("injection removed shape %+v", s)
		}
		if extra == 0 {
			continue
		}
		added += extra
		if s.Layer != tech.Metal1 {
			t.Fatalf("injected shape on %v: %+v", s.Layer, s)
		}
		inSite := false
		for _, site := range i1.HotspotSites {
			if site.Box.ContainsRect(s.R) {
				inSite = true
				break
			}
		}
		if !inSite {
			t.Fatalf("injected rect %v outside every recorded site", s.R)
		}
	}
	// 2 necks x 3 rects + 1 pad pair x 2 rects.
	if added != 8 {
		t.Fatalf("injected %d rects, want 8", added)
	}
	if i1.Rects != i0.Rects+8 {
		t.Fatalf("info.Rects = %d, want base %d + 8", i1.Rects, i0.Rects)
	}

	// Deterministic: same seed, same sites.
	_, i2, err := GenerateChip(tt, hot)
	if err != nil {
		t.Fatal(err)
	}
	for i := range i1.HotspotSites {
		if i1.HotspotSites[i] != i2.HotspotSites[i] {
			t.Fatalf("same seed, site %d differs: %+v vs %+v", i, i1.HotspotSites[i], i2.HotspotSites[i])
		}
	}

	// Requests beyond the slot grid clamp.
	over := base
	over.HotspotDefects = 100
	_, io, err := GenerateChip(tt, over)
	if err != nil {
		t.Fatal(err)
	}
	if len(io.HotspotSites) != 9 {
		t.Fatalf("clamped sites = %d, want slots^2 = 9", len(io.HotspotSites))
	}
}

// Repairable-via injection: sites are recorded in pairs, net-annotated
// at top level, strictly additive, and drawn after the earlier
// permutations so existing configurations do not shift.
func TestGenerateChipRepairDefects(t *testing.T) {
	tt := tech.N45()
	base := ChipOpts{Seed: 11, Slots: 3, Defects: 4, HotspotDefects: 3}
	rep := base
	rep.RepairDefects = 2

	l0, i0, err := GenerateChip(tt, base)
	if err != nil {
		t.Fatal(err)
	}
	l1, i1, err := GenerateChip(tt, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(i0.RepairSites) != 0 {
		t.Fatalf("base chip recorded repair sites: %v", i0.RepairSites)
	}
	if len(i1.RepairSites) != 4 {
		t.Fatalf("recorded %d sites, want 2 slots x 2", len(i1.RepairSites))
	}
	nets := make(map[NetID]bool)
	for k, s := range i1.RepairSites {
		want := "double"
		if k%2 == 1 {
			want = "grow"
		}
		if s.Kind != want {
			t.Fatalf("site %d kind = %q, want %q", k, s.Kind, want)
		}
		if !i1.Die.ContainsRect(s.Box) || !s.Box.ContainsRect(s.Cut) {
			t.Fatalf("site %d geometry inconsistent: %+v", k, s)
		}
		if s.Net == NoNet || nets[s.Net] {
			t.Fatalf("site %d net %d missing or reused", k, s.Net)
		}
		nets[s.Net] = true
	}
	// Earlier injections must not move.
	if len(i1.DefectBoxes) != len(i0.DefectBoxes) || len(i1.HotspotSites) != len(i0.HotspotSites) {
		t.Fatalf("earlier injections changed: %+v vs %+v", i1, i0)
	}
	for i := range i0.DefectBoxes {
		if i0.DefectBoxes[i] != i1.DefectBoxes[i] {
			t.Fatalf("spacing defect %d moved", i)
		}
	}
	for i := range i0.HotspotSites {
		if i0.HotspotSites[i] != i1.HotspotSites[i] {
			t.Fatalf("hotspot site %d moved", i)
		}
	}
	// Strictly additive: 2 slots x (3 double + 3 grow rects), each
	// net-annotated and inside its recorded site box.
	if i1.Rects != i0.Rects+12 {
		t.Fatalf("info.Rects = %d, want base %d + 12", i1.Rects, i0.Rects)
	}
	f0 := make(map[Shape]int)
	for _, s := range l0.Top.Shapes {
		f0[s]++
	}
	added := 0
	for _, s := range l1.Top.Shapes {
		if f0[s] > 0 {
			f0[s]--
			continue
		}
		added++
		if s.Net == NoNet {
			t.Fatalf("injected shape %+v has no net", s)
		}
		inSite := false
		for _, site := range i1.RepairSites {
			if site.Box.ContainsRect(s.R) && site.Net == s.Net {
				inSite = true
				break
			}
		}
		if !inSite {
			t.Fatalf("injected shape %+v outside every recorded site", s)
		}
	}
	if added != 12 {
		t.Fatalf("injected %d top-level shapes, want 12", added)
	}

	// Deterministic, and clamped to the slot grid.
	_, i2, err := GenerateChip(tt, rep)
	if err != nil {
		t.Fatal(err)
	}
	for i := range i1.RepairSites {
		if i1.RepairSites[i] != i2.RepairSites[i] {
			t.Fatalf("same seed, site %d differs", i)
		}
	}
	over := rep
	over.RepairDefects = 100
	_, io, err := GenerateChip(tt, over)
	if err != nil {
		t.Fatal(err)
	}
	if len(io.RepairSites) != 18 {
		t.Fatalf("clamped sites = %d, want 2 x slots^2 = 18", len(io.RepairSites))
	}
}

func BenchmarkFlatten(b *testing.B) {
	l, info, err := GenerateChip(tech.N45(), ChipOpts{Seed: 2, Slots: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat := l.Flatten()
		if int64(len(flat)) != info.Rects {
			b.Fatalf("flat count %d != %d", len(flat), info.Rects)
		}
	}
}

func BenchmarkGenerateChip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := GenerateChip(tech.N45(), ChipOpts{Seed: int64(i), Slots: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
