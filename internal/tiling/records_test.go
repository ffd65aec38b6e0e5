package tiling

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/tech"
)

// A run counts its own events, in Result.Stats, and nowhere else: the
// obs registry keeps only latencies and kernel internals. So every
// record comes out the same whether the registry is recording or not —
// a cached evaluation of a repeated-macro chip, a loopback DistEvaluate
// and an EvaluateDelta. What the registry does keep on the recording
// run is the stitch's time: one tiling.stitch.ns observation per
// evaluation in every engine.
func TestRecordsIgnoreRegistry(t *testing.T) {
	tt := tech.N45()
	ctx := context.Background()
	repeated := chipTop(t, layout.ChipOpts{
		Seed: 9, Slots: 4, SlotPitch: 24000,
		MacroMix: []int{0, 0, 0, 1},
	})
	l, info, err := layout.GenerateChip(tt, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, Defects: 3,
		MacroMix: []int{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	defects := l.Top
	drcOpts := Opts{Tile: 9000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000}

	// Each run's live reports whether the count it is there for moved,
	// so an equal pair of records is not an equal pair of zeros; evals
	// is how many evaluations, so stitches, it runs.
	runs := []struct {
		name  string
		run   func() (*Result, error)
		live  func(*Result) bool
		evals int64
	}{
		{"cached", func() (*Result, error) {
			// One worker: which of two equal tiles misses first is
			// otherwise a race, and the hit count with it.
			o := Opts{Tile: 24000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000,
				Workers: 1, Cache: NewCache(0)}
			return Evaluate(ctx, tt, NewExtractor(repeated), o)
		}, func(r *Result) bool { return r.Stats.TileHits > 0 }, 1},
		{"dist", func() (*Result, error) {
			return DistEvaluate(ctx, tt, NewExtractor(defects), drcOpts, &loopback{})
		}, func(r *Result) bool { return r.Stats.RemoteTiles > 0 }, 1},
		{"delta", func() (*Result, error) {
			_, snap, err := EvaluateSnap(ctx, tt, NewExtractor(defects), drcOpts)
			if err != nil {
				return nil, err
			}
			edited, changed := editCell(t, defects, defectShapes(t, defects, info.DefectBoxes[0]), nil)
			res, _, err := EvaluateDelta(ctx, tt, NewExtractor(edited), snap, changed)
			return res, err
		}, func(r *Result) bool { return r.Stats.SplicedTiles > 0 }, 2},
	}
	defer obs.SetEnabled(obs.Enabled())
	stitches := func() int64 { return obs.Default().Snapshot().Histograms["tiling.stitch.ns"].Count }
	for _, r := range runs {
		var got [2]*Result
		for i, on := range []bool{false, true} {
			obs.SetEnabled(on)
			before := stitches()
			res, err := r.run()
			if err != nil {
				t.Fatalf("%s (obs %v): %v", r.name, on, err)
			}
			want := int64(0)
			if on {
				want = r.evals
			}
			if n := stitches() - before; n != want {
				t.Errorf("%s (obs %v): %d tiling.stitch.ns observations, want %d", r.name, on, n, want)
			}
			res.Stats.Elapsed = 0
			got[i] = res
		}
		off, on := got[0], got[1]
		if !r.live(off) {
			t.Errorf("%s: the count under test stayed zero: %+v", r.name, off.Stats)
		}
		if !reflect.DeepEqual(off.Stats, on.Stats) {
			t.Errorf("%s: Stats differ with the registry on:\n  off: %+v\n  on:  %+v", r.name, off.Stats, on.Stats)
		}
	}
}
