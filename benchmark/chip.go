package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// chipSeed is the generator seed of every chip: one macro library, one
// floorplan, one set of injected defects per workload. The workload
// seed does not pick another chip. Drawing the library from it moves the
// rect count by ±8% at the same TargetRects; shuffling one floorplan's
// slots moves the number of distinct tiles, and with it the bytes
// allocated, by ±5%; even mirroring the chip moves them by ±2.5%. Each
// is more than a regression in allocation may hide behind. So every
// seed gives the one chip somewhere else and in another order: the
// work is the same by construction, no coordinate is.
const chipSeed = 11

// genChip generates the chip for co and returns the variant of it the
// workload seed selects: translated by up to a millimetre each way, its
// top-level shapes and instances in a shuffled order (which changes the
// order every tile's geometry is extracted in, and nothing a result
// depends on).
func genChip(t *tech.Tech, co layout.ChipOpts, seed int64) (*layout.Cell, layout.ChipInfo, error) {
	co.Seed = chipSeed
	l, info, err := layout.GenerateChip(t, co)
	if err != nil {
		return nil, info, fmt.Errorf("generate chip: %w", err)
	}
	rnd := rand.New(rand.NewSource(seed))
	d := geom.Pt(rnd.Int63n(2_000_001)-1_000_000, rnd.Int63n(2_000_001)-1_000_000)
	top := l.Top
	out := layout.NewCell(top.Name)
	for _, i := range rnd.Perm(len(top.Shapes)) {
		s := top.Shapes[i]
		out.AddNet(s.Layer, s.R.Translate(d), s.Net)
	}
	for _, i := range rnd.Perm(len(top.Insts)) {
		in := top.Insts[i]
		in.T.Offset = in.T.Offset.Add(d)
		out.Place(in.Cell, in.T, in.Name)
	}
	info.Die = info.Die.Translate(d)
	for i, r := range info.DefectBoxes {
		info.DefectBoxes[i] = r.Translate(d)
	}
	for i := range info.HotspotSites {
		info.HotspotSites[i].Box = info.HotspotSites[i].Box.Translate(d)
	}
	for i := range info.RepairSites {
		s := &info.RepairSites[i]
		s.Box, s.Cut = s.Box.Translate(d), s.Cut.Translate(d)
	}
	out.BBox() // warm the bbox cache single-threaded, as GenerateChip does
	return out, info, nil
}

// signoffOpts is the DRC plus density deck at the signoff tile size.
func signoffOpts(workers int) tiling.Opts {
	return tiling.Opts{
		Tile: 24000, Halo: 2000, Workers: workers,
		DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true,
	}
}

// digest is a short content hash of everything tiling.Equivalent
// compares, so two passes agree exactly when their digests do.
func digest(res *tiling.Result) string {
	h := sha256.New()
	var buf [8]byte
	i64 := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	rect := func(r geom.Rect) { i64(r.X0, r.Y0, r.X1, r.Y1) }
	i64(int64(len(res.Violations)), int64(res.Dropped))
	for _, v := range res.Violations {
		h.Write([]byte(v.Rule))
		h.Write([]byte(v.Detail))
		i64(int64(v.Layer))
		rect(v.Marker)
	}
	rules := make([]string, 0, len(res.ByRule))
	for r := range res.ByRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		h.Write([]byte(r))
		i64(int64(res.ByRule[r]))
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

// hotspotCount is the number of hotspots over all scanned layers.
func hotspotCount(res *tiling.Result) int {
	n := 0
	for _, hs := range res.Hotspots {
		n += len(hs)
	}
	return n
}

// tileGrid is the benchmark's own copy of the stage-A cut, used to time
// extraction from outside the engine: tile i extracts over
// padded[i] and measures the density windows wins[i].
type tileGrid struct {
	cores, padded []geom.Rect
	wins          [][]geom.Rect
}

// cutGrid cuts die the way tiling.Evaluate documents: cores of o.Tile,
// bloated by the larger of the halo and the density window, each density
// window owned by the tile that holds its lower-left corner.
func cutGrid(die geom.Rect, o tiling.Opts) tileGrid {
	nx := int((die.Width() + o.Tile - 1) / o.Tile)
	ny := int((die.Height() + o.Tile - 1) / o.Tile)
	pad := o.Halo
	if o.Density && o.DensityWindow > pad {
		pad = o.DensityWindow
	}
	g := tileGrid{wins: make([][]geom.Rect, nx*ny)}
	for i := 0; i < nx*ny; i++ {
		x0, y0 := die.X0+int64(i%nx)*o.Tile, die.Y0+int64(i/nx)*o.Tile
		core := geom.R(x0, y0, min(x0+o.Tile, die.X1), min(y0+o.Tile, die.Y1))
		g.cores = append(g.cores, core)
		g.padded = append(g.padded, core.Bloat(pad))
	}
	if o.Density {
		for _, w := range drc.WindowGrid(die, o.DensityWindow, o.DensityWindow/2) {
			ti := int((w.X0-die.X0)/o.Tile) + nx*int((w.Y0-die.Y0)/o.Tile)
			g.wins[ti] = append(g.wins[ti], w)
		}
	}
	return g
}
