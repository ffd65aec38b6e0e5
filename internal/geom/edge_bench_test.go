package geom

import (
	"math/rand"
	"testing"
)

// benchLayer is a normalized layer of n-ish disjoint wires and pads on
// a jittered grid — many distinct coordinates, which is what the
// per-coordinate boundary extraction paid for.
func benchLayer(n int) []Rect {
	rnd := rand.New(rand.NewSource(1))
	side := 1
	for side*side < n {
		side++
	}
	var rs []Rect
	for gy := 0; gy < side; gy++ {
		for gx := 0; gx < side; gx++ {
			x, y := int64(gx)*400+rnd.Int63n(60), int64(gy)*400+rnd.Int63n(60)
			rs = append(rs, R(x, y, x+100+rnd.Int63n(200), y+100+rnd.Int63n(200)))
		}
	}
	return Normalize(rs)
}

var benchSink int

func BenchmarkBoundaryEdges(b *testing.B) {
	rs := benchLayer(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(BoundaryEdges(rs))
	}
}

// BenchmarkIndexBuildQuery builds an index over a layer and asks one
// neighborhood query per rect, the shape of every DRC scan. The dense
// case fills its extent; the sparse one is what whole-shape extraction
// hands a tile: 300 rects in one corner and two chip-long routes that
// stretch the hull to 190 µm, so that nearly every bin laid is empty.
func BenchmarkIndexBuildQuery(b *testing.B) {
	sparse := append(benchLayer(298), R(-500, 9000, 190000, 9070), R(9000, -500, 9070, 190000))
	for _, c := range []struct {
		name string
		cell int64
		rs   []Rect
	}{{"dense", 512, benchLayer(400)}, {"sparse", 1024, sparse}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix := IndexOf(c.cell, c.rs)
				n := 0
				for _, r := range c.rs {
					n += len(ix.Query(r.Bloat(140)))
				}
				benchSink = n
			}
		})
	}
}
