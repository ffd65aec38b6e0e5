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

// gridLayer is a normalized layer of side×side disjoint 200 nm squares
// at a 400 nm pitch: one band per row, so side² rects in normal form.
func gridLayer(side int64) []Rect {
	rs := make([]Rect, 0, side*side)
	for gy := int64(0); gy < side; gy++ {
		for gx := int64(0); gx < side; gx++ {
			rs = append(rs, R(gx*400, gy*400, gx*400+200, gy*400+200))
		}
	}
	return rs
}

func BenchmarkBoundaryEdges(b *testing.B) {
	rs := benchLayer(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(BoundaryEdges(rs))
	}
}

// BenchmarkBoundarySides extracts the boundary of a normalized layer as
// the deck does: one signoff tile's metal1, whose vertical sides are
// sorted by slices.Sort of their keys, and a grid of 1024 rects, past
// keysort's radix cutoff. Run with -benchmem: the backing the four
// sides are cut from is the one allocation.
func BenchmarkBoundarySides(b *testing.B) {
	for _, c := range []struct {
		name string
		rs   []Rect
	}{{"tile", Normalize(tileLayer(b))}, {"grid-1024", gridLayer(32)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = len(BoundarySides(c.rs)[Above])
			}
		})
	}
}

// BenchmarkIndexBuildQuery lays an index over a layer's box, inserts its
// rects and asks one neighborhood query per rect, the shape of every
// DRC scan. The dense case fills its extent; the sparse one is what
// whole-shape extraction hands a tile: 300 rects in one corner and two
// chip-long routes that stretch the box to 190 µm, so that nearly every
// one of the 187×187 bins laid at cell 1024 is empty.
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
				ix := NewIndex(BBoxOf(c.rs), c.cell)
				for _, r := range c.rs {
					ix.Insert(r)
				}
				n := 0
				for _, r := range c.rs {
					n += len(ix.Query(r.Bloat(140)))
				}
				benchSink = n
			}
		})
	}
}
