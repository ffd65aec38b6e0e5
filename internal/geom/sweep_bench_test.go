package geom

import (
	"math/rand"
	"testing"
)

// blockRects draws n overlapping rects of 50–550 nm sides over a 50 µm
// square: block-scale data, where every rule has real overlap to resolve.
func blockRects(seed int64, n int) []Rect {
	rnd := rand.New(rand.NewSource(seed))
	rs := make([]Rect, n)
	for i := range rs {
		x, y := rnd.Int63n(50000), rnd.Int63n(50000)
		rs[i] = R(x, y, x+50+rnd.Int63n(500), y+50+rnd.Int63n(500))
	}
	return rs
}

// BenchmarkSweep times the sweep under each of its coverage rules, one
// consumer each: the covered-once rule banded (normalize), two binary
// rules banded (union, subtract), a binary rule summed (intersect-area)
// and the covered-twice rule summed (double-cover-area, over 25 nets
// each already in normal form, the shape of yield's short critical
// area).
func BenchmarkSweep(b *testing.B) {
	a, c := blockRects(1, 2000), blockRects(2, 2000)
	nets := make([][]Rect, 25)
	for i := range nets {
		nets[i] = Normalize(blockRects(int64(3+i), 80))
	}
	for _, r := range []struct {
		name string
		run  func() int
	}{
		{"normalize", func() int { return len(Normalize(a)) }},
		{"union", func() int { return len(Union(a, c)) }},
		{"subtract", func() int { return len(Subtract(a, c)) }},
		{"intersect-area", func() int { return int(IntersectArea(a, c)) }},
		{"double-cover-area", func() int { return int(DoubleCoverArea(nets...)) }},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = r.run()
			}
		})
	}
}
