package tiling

import (
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
)

// goldenTile and goldenWindow are one fixed unit of each stage. Shapes
// are deliberately out of key order, on several layers, with a
// duplicate, negative coordinates and nets, so the order normalization
// and every hashed field are exercised.
func goldenTile() *TileRequest {
	return &TileRequest{
		Schema: TileSchema, Stage: StageTile, Tech: *tech.N45(),
		DRC: true, Density: true, DensityWindow: 4000,
		DensityLayers: []tech.Layer{tech.Metal1, tech.Metal2},
		CoreW:         8000, CoreH: 8000, Pad: 2000,
		Windows: []geom.Rect{geom.R(0, 0, 4000, 4000), geom.R(4000, 0, 8000, 4000),
			geom.R(0, 4000, 4000, 8000), geom.R(4000, 4000, 8000, 8000)},
		Shapes: []layout.Shape{
			{Layer: tech.Metal2, R: geom.R(1850, 1500, 2150, 1570), Net: 7},
			{Layer: tech.Metal2, R: geom.R(1500, 1500, 1800, 1570), Net: 3},
			{Layer: tech.Metal1, R: geom.R(-1200, -400, 9100, -330), Net: layout.NoNet},
			{Layer: tech.Poly, R: geom.R(300, 200, 345, 2600)},
			{Layer: tech.Metal2, R: geom.R(1500, 1500, 1800, 1570), Net: 3},
			{Layer: tech.Metal1, R: geom.R(-1200, -400, 9100, -400)},
			{Layer: tech.Metal1, R: geom.R(-1200, -900, 150, 70)},
		},
	}
}

func goldenWindow() *TileRequest {
	return &TileRequest{
		Schema: TileSchema, Stage: StageWindow, Tech: *tech.N45(),
		Cond: litho.Nominal, Interior: true,
		Layer: tech.Metal1, WinW: 1500, WinH: 1500, Pad: 1000,
		Rects: []geom.Rect{geom.R(340, 0, 410, 1500), geom.R(200, 0, 270, 1500),
			geom.R(-1000, 700, 2500, 770), geom.R(200, 0, 270, 1400)},
	}
}

// The two hex values below were printed by this test at the parent of
// PR 19 (commit 53ff213, schema-2 wire, reflective sort, unbuffered
// hash writes). A content address is a hash of geometry and config,
// never of wire bytes or of how the hasher is fed: a key that moves here
// silently empties every tile cache in a fleet and re-keys the router's
// affinity ring. The wire round trip in the middle is the proof that
// the packed schema-3 form re-keyed nothing either.
func TestGoldenKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  *TileRequest
		want string
	}{
		{"tile", goldenTile(), "40fb0838335b614e5cad78ab7b9dfcdcd1e4af1b620e83dc8230fdfdf7dc568e"},
		{"window", goldenWindow(), "d686896e7bf60c213c68292de01022f420286dd7d61d449ddecb7ee9798bd455"},
	} {
		k, err := tc.req.Key()
		if err != nil {
			t.Fatalf("%s: Key: %v", tc.name, err)
		}
		if got := hex.EncodeToString(k[:]); got != tc.want {
			t.Errorf("%s: key %s, recorded at the parent commit as %s", tc.name, got, tc.want)
		}
		b, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		var back TileRequest
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.name, err)
		}
		if bk, err := back.Key(); err != nil || bk != k {
			t.Errorf("%s: key after the wire round trip %x (%v), before it %x", tc.name, bk, err, k)
		}
	}
}
