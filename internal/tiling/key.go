package tiling

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"slices"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/surrogate"
	"repro/internal/tech"
)

// Content addressing for per-cell result reuse, following the dfmd
// cache (internal/server/key.go): a schema-versioned canonical payload
// is hashed, and equal keys mean equal work. Here the payload is the
// tile's extracted geometry RELATIVE to the tile origin plus every
// run parameter that influences the tile's result — so two tiles over
// repeated macro instances hash identically wherever the floorplan is
// grid-aligned, and results replay by translation. Net ids are
// deliberately excluded: Flatten remaps them per instance, no tiled
// check reads them, and keying on them would defeat all sharing.

// keySchema versions the key payload; bump on any change to payload
// shape or to the semantics of any per-tile computation.
// Schema 2 folded the enabled density layers into the config hash:
// which density rules run in a tile is a chip-global property (a
// layer empty everywhere is skipped, a tile-locally empty one is
// not), so without it two chips could alias tiles whose density
// outputs have different shapes.
// Schema 3 added the interior-pinch filter flag and the surrogate
// gating config: the filter changes which hotspots a window reports,
// and the surrogate changes which windows of a run are exact at all,
// so results computed under different gating must never alias.
const keySchema = 3

// configKey hashes the run-wide parameters shared by every unit key,
// read off any unit of the run (or the plan's template): the full
// technology (rules derive the DRC deck and scan thresholds) and the
// evaluation options that alter per-unit results. DensityLayers is the
// chip-global enabled density rule set in deck order.
func configKey(r *TileRequest) [sha256.Size]byte {
	densLayers := r.DensityLayers
	if len(densLayers) == 0 {
		densLayers = nil // canonical: empty and absent hash identically
	}
	p := struct {
		Schema   int               `json:"schema"`
		Tech     tech.Tech         `json:"tech"`
		DRC      bool              `json:"drc"`
		Density  bool              `json:"density"`
		DensW    int64             `json:"densW"`
		DensL    []tech.Layer      `json:"densL"`
		Cond     litho.Condition   `json:"cond"`
		MinW     int64             `json:"minW"`
		MinS     int64             `json:"minS"`
		Interior bool              `json:"interior"`
		Surr     *surrogate.Config `json:"surr,omitempty"`
	}{keySchema, r.Tech, r.DRC, r.Density, r.DensityWindow, densLayers, r.Cond, r.MinWidth, r.MinSpace,
		r.Interior, r.Surrogate}
	b, err := json.Marshal(p)
	if err != nil {
		panic("tiling: config key marshal: " + err.Error())
	}
	return sha256.Sum256(b)
}

// hashWriter accumulates int64 fields into a sha256 stream. Fields
// collect in buf and reach the hash a block at a time: every unit that
// is cached or shipped is hashed where it is built and again on the
// node that serves it, and one interface call per eight bytes was most
// of what that cost. The hashed byte stream is the same however it is
// chunked, so buffering moves no key.
type hashWriter struct {
	h   hash.Hash
	n   int
	buf [4096]byte
}

func newHashWriter(cfg [sha256.Size]byte, stage byte) *hashWriter {
	w := &hashWriter{h: sha256.New()}
	w.n = copy(w.buf[:], cfg[:])
	w.buf[w.n] = stage
	w.n++
	return w
}

func (w *hashWriter) i64(vs ...int64) {
	for _, v := range vs {
		if w.n+8 > len(w.buf) {
			w.flush()
		}
		binary.LittleEndian.PutUint64(w.buf[w.n:], uint64(v))
		w.n += 8
	}
}

func (w *hashWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *hashWriter) sum() (k [sha256.Size]byte) {
	w.flush()
	w.h.Sum(k[:0])
	return k
}

// key is the unit's content address under cfg, its configKey — which
// the engine hashes once per plan and Key derives from the unit. The
// geometry is hashed as it stands, so r must be in canonical order:
// canonicalize establishes it, Validate verifies it.
func (r *TileRequest) key(cfg [sha256.Size]byte) [sha256.Size]byte {
	if r.Stage == StageTile {
		return tileKey(cfg, r.CoreW, r.CoreH, r.Pad, r.Windows, r.Shapes)
	}
	return windowKey(cfg, r.Layer, r.WinW, r.WinH, r.Pad, r.Rects)
}

// canonicalize sorts the unit's geometry, in place, into the one order
// a unit is keyed and shipped in: Shapes by layer then rectCmp, Rects by
// rectCmp. Extraction order follows hierarchy traversal, which may
// differ between tiles holding identical geometry sets; every consumer
// (normalization, scans, components, the surrogate's multiset features)
// is order-insensitive up to the final global sort, so one order for
// equal sets is sound and maximizes sharing. The engine calls it once,
// where a unit first needs an identity (engine.runUnit); nothing
// downstream sorts again.
func (r *TileRequest) canonicalize() {
	slices.SortFunc(r.Shapes, shapeCmp)
	slices.SortFunc(r.Rects, rectCmp)
}

// tileKey is the content address of one DRC/density tile: core
// dimensions, context pad, the density windows and the extracted
// shapes, both relative to the core, the shapes in canonical order.
func tileKey(cfg [sha256.Size]byte, coreW, coreH, pad int64, wins []geom.Rect, shapes []layout.Shape) [sha256.Size]byte {
	w := newHashWriter(cfg, 'T')
	w.i64(coreW, coreH, pad)
	w.i64(int64(len(wins)))
	for _, r := range wins {
		w.i64(r.X0, r.Y0, r.Width(), r.Height())
	}
	w.i64(int64(len(shapes)))
	for _, s := range shapes {
		w.i64(int64(s.Layer), s.R.X0, s.R.Y0, s.R.X1, s.R.Y1)
	}
	return w.sum()
}

// shapeCmp is the canonical order of a tile's shapes: layer, then
// rectCmp.
func shapeCmp(a, b layout.Shape) int {
	if a.Layer != b.Layer {
		return cmp.Compare(a.Layer, b.Layer)
	}
	return rectCmp(a.R, b.R)
}

// rectCmp is the (X0, Y0, X1, Y1) order canonical geometry is in.
// Records that compare equal hash to the same bytes (a shape's net is
// neither compared nor hashed), so the unstable sort cannot reorder the
// hashed stream.
func rectCmp(a, b geom.Rect) int {
	if a.X0 != b.X0 {
		return cmp.Compare(a.X0, b.X0)
	}
	if a.Y0 != b.Y0 {
		return cmp.Compare(a.Y0, b.Y0)
	}
	if a.X1 != b.X1 {
		return cmp.Compare(a.X1, b.X1)
	}
	return cmp.Compare(a.Y1, b.Y1)
}

// windowKey is the content address of one litho scan window: layer,
// window dimensions, extraction pad, and the layer rects relative to
// the window origin, in canonical order.
func windowKey(cfg [sha256.Size]byte, layer tech.Layer, winW, winH, pad int64, rs []geom.Rect) [sha256.Size]byte {
	w := newHashWriter(cfg, 'W')
	w.i64(int64(layer), winW, winH, pad)
	w.i64(int64(len(rs)))
	for _, r := range rs {
		w.i64(r.X0, r.Y0, r.X1, r.Y1)
	}
	return w.sum()
}
