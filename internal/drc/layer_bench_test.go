package drc

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/geom"
)

// tileMetal1 reads the metal1 rects of one signoff tile that geom's
// benchmarks share (one "x0 y0 x1 y1" line each) and normalizes them, as
// NewContext does.
func tileMetal1(tb testing.TB) []geom.Rect {
	tb.Helper()
	f, err := os.Open("../geom/testdata/tile_metal1.txt")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var rs []geom.Rect
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			var r geom.Rect
			if _, err := fmt.Sscan(line, &r.X0, &r.Y0, &r.X1, &r.Y1); err != nil {
				tb.Fatalf("%q: %v", line, err)
			}
			rs = append(rs, r)
		}
	}
	return geom.Normalize(rs)
}

// layerQueries is the mix of questions the deck asks of one metal1
// layer at its 70 nm rules: the space or width between every facing
// pair the scans keep and every corner pair, and density windows over
// the tile (clip areas); the points just past each rect's top and
// bottom that Endcap probes; and each rect bloated by the spacing, the
// corner scan's query.
func layerQueries(rs []geom.Rect) (clips []geom.Rect, points []geom.Point, bloats []geom.Rect) {
	const lim = 70
	var ly preparedLayer
	ly.prepare(rs)
	for _, interior := range []bool{true, false} {
		for _, c := range facingPairs(&ly, lim, interior) {
			clips = append(clips, c.m)
		}
	}
	for _, v := range cornerScan(&ly, lim, "", 0) {
		clips = append(clips, v.Marker)
	}
	bb := geom.BBoxOf(rs)
	for y := bb.Y0; y < bb.Y1; y += 5000 {
		for x := bb.X0; x < bb.X1; x += 5000 {
			clips = append(clips, geom.R(x, y, x+10000, y+10000))
		}
	}
	for _, r := range rs {
		mx := (r.X0 + r.X1) / 2
		points = append(points, geom.Pt(mx, r.Y1+1), geom.Pt(mx, r.Y0-1))
		bloats = append(bloats, r.Bloat(lim))
	}
	return clips, points, bloats
}

// BenchmarkLayerQuery prepares the tile's metal1 layer and replays the
// deck's query mix against it, the prepared form's own band walk
// (/bands) against the flat-grid index the deck used to build per layer
// (/index), whose arm is the old clipArea and coversPoint over
// geom.IndexOf. ns/query divides an op, build included, by the queries
// it asks; the sums must agree.
func BenchmarkLayerQuery(b *testing.B) {
	rs := tileMetal1(b)
	clips, points, bloats := layerQueries(rs)
	nq := float64(len(clips) + len(points) + len(bloats))
	var want int64
	for _, arm := range []struct {
		name string
		run  func() int64
	}{
		{"bands", func() int64 {
			var ly preparedLayer
			ly.prepare(rs)
			var sum int64
			for _, q := range clips {
				sum += ly.ClipArea(q)
			}
			for _, p := range points {
				if ly.coversPoint(p) {
					sum++
				}
			}
			for _, q := range bloats {
				ly.Near(q, func(i int, _ geom.Rect) { sum += int64(i) })
			}
			return sum
		}},
		{"index", func() int64 {
			ix := geom.IndexOf(layerCell, rs)
			var sum int64
			for _, q := range clips {
				var a int64
				ix.QueryFunc(q, func(_ int, r geom.Rect) bool {
					a += r.Intersect(q).Area()
					return true
				})
				sum += a
			}
			for _, p := range points {
				hit := false
				ix.QueryFunc(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X, Y1: p.Y}, func(int, geom.Rect) bool {
					hit = true
					return false
				})
				if hit {
					sum++
				}
			}
			for _, q := range bloats {
				ix.QueryFunc(q, func(i int, _ geom.Rect) bool {
					sum += int64(i)
					return true
				})
			}
			return sum
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum int64
			for i := 0; i < b.N; i++ {
				sum = arm.run()
			}
			if want == 0 {
				want = sum
			} else if sum != want {
				b.Fatalf("%s sums to %d, bands to %d", arm.name, sum, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nq, "ns/query")
			b.ReportMetric(nq, "queries")
		})
	}
}
