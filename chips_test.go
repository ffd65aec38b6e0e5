package repro

// The result bits of the benchmark's chip shapes, pinned in one golden
// file: what a change that claims to move none of them is held to.
//
//	go test -run TestChipResults .                 # hold the results to testdata/chips.golden
//	go test -v -run TestChipResults -update .      # re-mint; prints one "old → new" line per moved value

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/repair"
	"repro/internal/tech"
	"repro/internal/tiling"
	yieldpkg "repro/internal/yield"
)

const chipsGoldenPath = "testdata/chips.golden"

// signoff is the benchmark's DRC plus density deck at the signoff tile.
var signoff = tiling.Opts{
	Tile: 24000, Halo: 2000,
	DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true,
}

// chipCase is one of the benchmark's chip shapes: how it is generated,
// and how its result is reached from the generated chip.
type chipCase struct {
	name string
	co   layout.ChipOpts
	run  func(t *testing.T, tt *tech.Tech, top *layout.Cell) *tiling.Result
}

// evaluateWith is a chipCase's run for one tiled evaluation under o.
func evaluateWith(o tiling.Opts) func(*testing.T, *tech.Tech, *layout.Cell) *tiling.Result {
	return func(t *testing.T, tt *tech.Tech, top *layout.Cell) *tiling.Result {
		res, err := tiling.EvaluateChip(context.Background(), tt, top, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

var chipCases = []chipCase{
	// chip_drc: signoff over the 8×8-slot chip.
	{"drc", layout.ChipOpts{TargetRects: 100_000, Defects: 8}, evaluateWith(signoff)},
	// chip_litho: the exact metal1 scan of the 2×2-slot chip.
	{"litho", layout.ChipOpts{Slots: 2, SlotPitch: 14000, MacroMix: []int{0, 2, 2, 1}, HotspotDefects: 2},
		evaluateWith(tiling.Opts{Hotspots: []tech.Layer{tech.Metal1}, HotspotInterior: true})},
	// chip_edit: the 5×5-slot chip after its first 6 fixes.
	{"edit", layout.ChipOpts{TargetRects: 30_000, Defects: 8, RepairDefects: 16}, editSix},
}

// editSix is chip_edit's pass: score the chip, propose fixes, and apply
// the first six one at a time, each checked for legality and re-scored
// through EvaluateDelta. A fix that no longer fits or would add a
// violation is rejected, as repair.Run rejects it.
func editSix(t *testing.T, tt *tech.Tech, top *layout.Cell) *tiling.Result {
	ctx := context.Background()
	res, snap, err := tiling.EvaluateSnap(ctx, tt, tiling.NewExtractor(top), signoff)
	if err != nil {
		t.Fatal(err)
	}
	singles, _ := yieldpkg.CountViaRedundancy(top.Shapes, tt)
	fixes, _, err := repair.Propose(ctx, tt, top, repair.ScoreResult(res, singles, repair.Weights{}), repair.Weights{})
	if err != nil || len(fixes) < 6 {
		t.Fatalf("propose: %d fixes, %v", len(fixes), err)
	}
	pad := 3 * tiling.MinHalo(tt)
	cur := top
	for _, f := range fixes[:6] {
		cand, err := repair.Apply(cur, f.Delta)
		if err != nil {
			continue
		}
		vs, err := repair.NewViolations(ctx, tt, cur, cand, f.Delta, pad)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 {
			continue
		}
		if res, snap, err = tiling.EvaluateDelta(ctx, tt, tiling.NewExtractor(cand), snap, f.Delta.Rects()); err != nil {
			t.Fatal(err)
		}
		cur = cand
	}
	return res
}

// chipValues is what the golden file pins of one chip's result, one
// "name = value" line each: the per-rule counts and what was dropped,
// hotspots by layer and kind, the injected defects found, and a digest
// of the sorted violations, the hotspots and the density values.
func chipValues(prefix string, info layout.ChipInfo, res *tiling.Result) []string {
	var out []string
	add := func(name string, format string, a ...any) {
		out = append(out, prefix+" "+name+" = "+fmt.Sprintf(format, a...))
	}
	rules := make([]string, 0, len(res.ByRule))
	for rule := range res.ByRule {
		rules = append(rules, rule)
	}
	slices.Sort(rules)
	for _, rule := range rules {
		add("rule "+rule, "%d", res.ByRule[rule])
	}
	add("dropped", "%d", res.Dropped)
	for l := tech.Layer(0); l < tech.NumLayers; l++ {
		hs, ok := res.Hotspots[l]
		if !ok {
			continue
		}
		var n [2]int
		for _, h := range hs {
			n[h.Kind]++
		}
		for k, c := range n {
			add(fmt.Sprintf("hotspots %v %v", l, litho.HotspotKind(k)), "%d", c)
		}
	}
	if len(info.DefectBoxes) > 0 {
		found := 0
		for _, box := range info.DefectBoxes {
			if slices.ContainsFunc(res.Violations, func(v drc.Violation) bool {
				return strings.HasPrefix(v.Rule, "metal2.space") && v.Marker.Overlaps(box)
			}) {
				found++
			}
		}
		add("spacing defects found", "%d of %d", found, len(info.DefectBoxes))
	}
	if len(info.HotspotSites) > 0 {
		found := 0
		for _, site := range info.HotspotSites {
			if slices.ContainsFunc(res.Hotspots[site.Layer], func(h litho.Hotspot) bool { return h.Box.Overlaps(site.Box) }) {
				found++
			}
		}
		add("hotspot sites found", "%d of %d", found, len(info.HotspotSites))
	}
	add("violations", "%d", len(res.Violations))
	add("digest", "%s", resultDigest(res))
	return out
}

// resultDigest hashes the violations in their (sorted) order, every
// layer's hotspots and every layer's density values, bit for bit.
func resultDigest(res *tiling.Result) string {
	h := sha256.New()
	var buf [8]byte
	i64 := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	rect := func(r geom.Rect) { i64(r.X0, r.Y0, r.X1, r.Y1) }
	for _, v := range res.Violations {
		fmt.Fprintf(h, "%s\x00%s\x00", v.Rule, v.Detail)
		i64(int64(v.Layer))
		rect(v.Marker)
	}
	for l := tech.Layer(0); l < tech.NumLayers; l++ {
		if hs, ok := res.Hotspots[l]; ok {
			i64(int64(l), int64(len(hs)))
			for _, hp := range hs {
				i64(int64(hp.Kind))
				rect(hp.Box)
			}
		}
		if dm, ok := res.Density[l]; ok {
			i64(int64(l), int64(len(dm.Density)))
			for _, d := range dm.Density {
				i64(int64(math.Float64bits(d)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// variant is the chip the benchmark evaluates at seed: generated at
// generator seed 11 whatever the seed, then translated by up to a
// millimetre each way, its top-level shapes and instances shuffled.
func variant(t *testing.T, tt *tech.Tech, co layout.ChipOpts, seed int64) (*layout.Cell, layout.ChipInfo) {
	co.Seed = 11
	l, info, err := layout.GenerateChip(tt, co)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(seed))
	d := geom.Pt(rnd.Int63n(2_000_001)-1_000_000, rnd.Int63n(2_000_001)-1_000_000)
	top := layout.NewCell(l.Top.Name)
	for _, i := range rnd.Perm(len(l.Top.Shapes)) {
		s := l.Top.Shapes[i]
		top.AddNet(s.Layer, s.R.Translate(d), s.Net)
	}
	for _, i := range rnd.Perm(len(l.Top.Insts)) {
		in := l.Top.Insts[i]
		in.T.Offset = in.T.Offset.Add(d)
		top.Place(in.Cell, in.T, in.Name)
	}
	for i, r := range info.DefectBoxes {
		info.DefectBoxes[i] = r.Translate(d)
	}
	for i := range info.HotspotSites {
		info.HotspotSites[i].Box = info.HotspotSites[i].Box.Translate(d)
	}
	return top, info
}

// TestChipResults evaluates each of the benchmark's chip shapes at the
// benchmark's seeds 11 and 23 and holds what chipValues reads of each
// result to testdata/chips.golden, line for line.
func TestChipResults(t *testing.T) {
	tt := tech.N45()
	var got []string
	for _, seed := range []int64{11, 23} {
		for _, c := range chipCases {
			top, info := variant(t, tt, c.co, seed)
			got = append(got, chipValues(fmt.Sprintf("%s/seed=%d", c.name, seed), info, c.run(t, tt, top))...)
		}
	}
	var want []string
	if b, err := os.ReadFile(chipsGoldenPath); err == nil {
		want = lines(string(b))
	} else if !*update {
		t.Fatal(err)
	}
	old := map[string]string{}
	for _, line := range want {
		name, v, _ := strings.Cut(line, " = ")
		old[name] = v
	}
	if *update {
		for _, line := range got {
			name, v, _ := strings.Cut(line, " = ")
			if was, ok := old[name]; !ok || was != v {
				t.Logf("%s: %s → %s", name, cmp.Or(was, "(none)"), v)
			}
			delete(old, name)
		}
		for name, was := range old {
			t.Logf("%s: %s → (none)", name, was)
		}
		if err := os.WriteFile(chipsGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if d := firstDiff("chip values", want, got); d != "" {
		t.Errorf("%s\n(if the move is intended: go test -v -run TestChipResults -update .)", d)
	}
}
