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
	ly.Reset(rs)
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
// deck's query mix against its band walk. ns/query divides an op, build
// included, by the queries it asks.
func BenchmarkLayerQuery(b *testing.B) {
	rs := tileMetal1(b)
	clips, points, bloats := layerQueries(rs)
	nq := float64(len(clips) + len(points) + len(bloats))
	b.ReportAllocs()
	var sum int64
	for i := 0; i < b.N; i++ {
		var ly preparedLayer
		ly.Reset(rs)
		sum = 0
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
	}
	if sum == 0 {
		b.Fatal("the query mix found nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nq, "ns/query")
	b.ReportMetric(nq, "queries")
}
