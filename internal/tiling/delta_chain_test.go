package tiling

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// writeCounts writes a per-rule count map in key order.
func writeCounts(w io.Writer, counts map[string]int) {
	rules := make([]string, 0, len(counts))
	for name := range counts {
		rules = append(rules, name)
	}
	sort.Strings(rules)
	for _, name := range rules {
		fmt.Fprintf(w, "%s=%d|", name, counts[name])
	}
}

// sumResult digests everything Equivalent compares.
func sumResult(r *Result) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d|", r.Violations, r.Dropped)
	writeCounts(h, r.ByRule)
	for l := tech.Layer(0); l < tech.NumLayers; l++ {
		if dm, ok := r.Density[l]; ok {
			fmt.Fprintf(h, "%v:%v|", l, dm.Density)
		}
		if hs, ok := r.Hotspots[l]; ok {
			fmt.Fprintf(h, "%v:%v|", l, hs)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// sumSnapshot digests what a Snapshot retains of stage A: every tile's
// output and the stitched state.
func sumSnapshot(s *Snapshot) [sha256.Size]byte {
	h := sha256.New()
	for _, out := range s.outs {
		fmt.Fprintf(h, "%+v|%v|", out.Violations, out.Dens)
	}
	fmt.Fprintf(h, "%+v|%v|", s.st.viol, s.st.dens)
	writeCounts(h, s.st.byRule)
	return [sha256.Size]byte(h.Sum(nil))
}

// A seeded chain of random edits, every step re-evaluated through
// EvaluateDelta from the step before and compared with a from-scratch
// evaluation and with the whole-chip stitch oracle. The edits are the
// ones the incremental stitch can get wrong: violations whose markers
// straddle a seam, identical cuts drawn twice (a run longer than one,
// beside a seam and across it), single shapes taken away again (a run
// that shrinks), blocks that move density windows into and out of
// range, an edit deep inside one tile, which leaves the neighbours
// that own the windows overhanging its core clean, and one shape drawn
// past the die's edge and later taken away, which moves the die twice
// and so takes the chain through a re-plan and back. Snapshots share
// what they retain, so at the end every earlier result and snapshot
// must still digest as it did when it was returned.
func TestDeltaChainRandomEdits(t *testing.T) {
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, Defects: 3,
		MacroMix: []int{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	ctx := context.Background()
	shape := func(l tech.Layer, r geom.Rect) layout.Shape { return layout.Shape{Layer: l, R: r, Net: layout.NoNet} }

	for _, tile := range []int64{9000, 16000} {
		t.Run(fmt.Sprintf("tile=%d", tile), func(t *testing.T) {
			o := Opts{Tile: tile, Halo: 2000, Workers: 2, DRC: true, Density: true, DensityWindow: 3000,
				KeepDensityMaps: true}
			rng := rand.New(rand.NewSource(tile))
			res, snap, err := EvaluateSnap(ctx, tt, NewExtractor(l.Top), o)
			if err != nil {
				t.Fatalf("EvaluateSnap: %v", err)
			}
			die, pad := snap.Die(), snap.plan.pad
			nx, ny := snap.plan.nx, snap.plan.ny
			if nx < 2 || ny < 2 || tile < 2*pad+1000 {
				t.Fatalf("grid %dx%d, pad %d: no seam or no tile interior to edit", nx, ny, pad)
			}
			seamX := func() int64 { return die.X0 + int64(1+rng.Intn(nx-1))*tile }
			anyY := func() int64 { return die.Y0 + 1000 + rng.Int63n(die.Height()-2000) }

			type link struct {
				res     *Result
				snap    *Snapshot
				resSum  [sha256.Size]byte
				snapSum [sha256.Size]byte
				changed []geom.Rect // what this step edited
			}
			chain := []link{{res: res, snap: snap, resSum: sumResult(res), snapSum: sumSnapshot(snap)}}
			cur := l.Top
			var mine []layout.Shape  // what the chain added and has not removed
			var outside layout.Shape // the shape drawn past the die's edge
			var sawSplice, sawRun, sawSeam, sawDensityMove, sawLoneTile bool

			kinds := []string{"seam", "twice", "density", "inside", "seam", "twice", "density", "remove", "remove", "inside", "remove", "remove", "grow", "shrink"}
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			if g, sh := slices.Index(kinds, "grow"), slices.Index(kinds, "shrink"); sh < g {
				kinds[g], kinds[sh] = kinds[sh], kinds[g]
			}
			for step, kind := range kinds {
				var remove, add []layout.Shape
				switch {
				case kind == "seam":
					// Two wires 40nm apart, both crossing a seam: the
					// spacing marker lies under two cores.
					x, y := seamX(), anyY()
					add = []layout.Shape{
						shape(tech.Metal2, geom.R(x-300, y, x+300, y+100)),
						shape(tech.Metal2, geom.R(x-300, y+140, x+300, y+240)),
					}
				case kind == "twice":
					// Bare cuts drawn twice: one pair beside the seam (a
					// run of two in one tile, none in the next), one
					// pair on it (a run of two in both).
					x, y := seamX(), anyY()
					beside, on := geom.R(x-400, y, x-340, y+60), geom.R(x-30, y+500, x+30, y+560)
					add = []layout.Shape{shape(tech.Via1, beside), shape(tech.Via1, beside), shape(tech.Via1, on), shape(tech.Via1, on)}
				case kind == "density":
					// Half a window of metal1, aligned to the window
					// grid: the window it fills half of lands inside
					// [0.2, 0.8], its neighbours move by a quarter.
					x := die.X0 + 1500*rng.Int63n(die.Width()/1500-2)
					y := die.Y0 + 1500*rng.Int63n(die.Height()/1500-2)
					add = []layout.Shape{shape(tech.Metal1, geom.R(x, y, x+3000, y+1500))}
				case kind == "inside":
					// A sliver further than the pad from every seam:
					// one tile recomputed, all its neighbours spliced.
					// (Not in the last row or column, which the die clips.)
					tx, ty := int64(rng.Intn(nx-1)), int64(rng.Intn(ny-1))
					x, y := die.X0+tx*tile+tile/2, die.Y0+ty*tile+tile/2
					add = []layout.Shape{shape(tech.Metal3, geom.R(x, y, x+50, y+400))}
				case kind == "grow":
					// A sliver past the die's right edge: the die, and
					// the grids anchored on it, no longer fit the plan.
					y := anyY()
					outside = shape(tech.Metal3, geom.R(die.X1+500, y, die.X1+550, y+400))
					add = []layout.Shape{outside}
				case kind == "shrink":
					// The sliver goes again, and the die with it.
					remove = []layout.Shape{outside}
				case len(mine) > 0: // "remove": one shape the chain added, a twin stays
					i := rng.Intn(len(mine))
					remove = []layout.Shape{mine[i]}
					mine = slices.Delete(mine, i, i+1)
				default:
					continue
				}
				if kind != "grow" {
					mine = append(mine, add...)
				}

				edited, changed := editCell(t, cur, remove, add)
				prev := chain[len(chain)-1]
				label := fmt.Sprintf("step %d (%s)", step, kind)
				resD, snapD, err := EvaluateDelta(ctx, tt, NewExtractor(edited), prev.snap, changed)
				if err != nil {
					t.Fatalf("%s: EvaluateDelta: %v", label, err)
				}
				fresh, err := EvaluateChip(ctx, tt, edited, o)
				if err != nil {
					t.Fatalf("%s: EvaluateChip: %v", label, err)
				}
				diffResults(t, label+": delta vs from scratch", resD, fresh)
				if !Equivalent(resD, fresh) {
					t.Fatalf("%s: Equivalent(delta, from scratch) = false", label)
				}
				if oracle := snapD.plan.stitchOracle(newResult(), snapD.outs); !Equivalent(resD, oracle) {
					t.Fatalf("%s: delta stitch differs from the whole-chip stitch of the same tile outputs", label)
				}
				sawSplice = sawSplice || resD.Stats.SplicedTiles > 0
				if kind == "grow" || kind == "shrink" {
					if snapD.Die() == prev.snap.Die() {
						t.Fatalf("%s: die stayed %v", label, snapD.Die())
					}
					if resD.Stats.SplicedTiles != 0 {
						t.Fatalf("%s: re-plan spliced %d tiles, want none", label, resD.Stats.SplicedTiles)
					}
				}
				if kind == "shrink" && snapD.Die() != die {
					t.Fatalf("%s: die %v, want it back at %v", label, snapD.Die(), die)
				}

				all := snapD.st.viol
				for i, v := range all {
					sawRun = sawRun || i > 0 && all[i-1] == v
					if c := (v.Marker.X0 - die.X0) / tile; !strings.HasSuffix(v.Rule, ".density") && die.X0+(c+1)*tile < v.Marker.X1 {
						sawSeam = true
					}
				}
				for name, n := range resD.ByRule {
					sawDensityMove = sawDensityMove || strings.HasSuffix(name, ".density") && n != prev.res.ByRule[name]
				}
				if kind == "inside" {
					if dirty := prev.snap.InvalidatedTiles(changed); len(dirty) != 1 {
						t.Fatalf("%s: invalidated %v, want one tile", label, dirty)
					}
					sawLoneTile = true
				}
				chain = append(chain, link{res: resD, snap: snapD, resSum: sumResult(resD), snapSum: sumSnapshot(snapD), changed: changed})
				cur = edited
			}
			if !sawSplice || !sawRun || !sawSeam || !sawDensityMove || !sawLoneTile {
				t.Fatalf("chain never produced: spliced tile %v, run > 1 %v, marker across a seam %v, density count moved %v, lone dirty tile %v",
					sawSplice, sawRun, sawSeam, sawDensityMove, sawLoneTile)
			}

			// An old snapshot is still a valid base, for several callers
			// at once (what the race detector watches here): from the
			// middle of the chain, one delta over everything edited since.
			mid := len(chain) / 2
			var since []geom.Rect
			for _, lk := range chain[mid+1:] {
				since = append(since, lk.changed...)
			}
			last := chain[len(chain)-1]
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					jump, _, err := EvaluateDelta(ctx, tt, NewExtractor(cur), chain[mid].snap, since)
					if err != nil {
						t.Errorf("delta from snapshot %d: %v", mid, err)
					} else if !Equivalent(jump, last.res) {
						t.Errorf("delta from snapshot %d differs from the chain's end", mid)
					}
				}()
			}
			wg.Wait()

			for i, lk := range chain {
				if sumResult(lk.res) != lk.resSum {
					t.Errorf("result %d changed after it was returned", i)
				}
				if sumSnapshot(lk.snap) != lk.snapSum {
					t.Errorf("snapshot %d changed after it was returned", i)
				}
			}
		})
	}
}
