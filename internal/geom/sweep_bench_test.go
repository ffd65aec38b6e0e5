package geom

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
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

// tileLayer reads testdata/tile_metal1.txt: the metal1 rects of one
// signoff tile, as a tile unit holds them (canonical order, not normal
// form), one "x0 y0 x1 y1" line each.
func tileLayer(tb testing.TB) []Rect {
	tb.Helper()
	f, err := os.Open("testdata/tile_metal1.txt")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var rs []Rect
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			var r Rect
			if _, err := fmt.Sscan(line, &r.X0, &r.Y0, &r.X1, &r.Y1); err != nil {
				tb.Fatalf("%q: %v", line, err)
			}
			rs = append(rs, r)
		}
	}
	return rs
}

// BenchmarkSweep times the sweep under each of its coverage rules, one
// consumer each: the covered-once rule banded (normalize), two binary
// rules banded (union, subtract), a binary rule summed (intersect-area)
// and the covered-twice rule summed (double-cover-area, over 25 nets
// each already in normal form, the shape of yield's short critical
// area). normalize-tile is what drc.NewContext does to one layer of a
// signoff tile, normalize-small the sweep of fewer than 64 events that
// nearly every sweep of the scorecard is.
func BenchmarkSweep(b *testing.B) {
	a, c := blockRects(1, 2000), blockRects(2, 2000)
	nets := make([][]Rect, 25)
	for i := range nets {
		nets[i] = Normalize(blockRects(int64(3+i), 80))
	}
	tile := tileLayer(b)
	small := tile[:16]
	for _, r := range []struct {
		name string
		run  func() int
	}{
		{"normalize", func() int { return len(Normalize(a)) }},
		{"normalize-tile", func() int { return len(Normalize(tile)) }},
		{"normalize-small", func() int { return len(Normalize(small)) }},
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
