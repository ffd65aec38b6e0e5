package dfm

import (
	"context"
	"testing"

	"repro/internal/pattern"
	"repro/internal/tech"
)

// BenchmarkMatcherScan times drc-plus's pattern scan as the scorecard
// runs it at seed 11: the library trained on the seed-11 block, scanning
// the metal1 of the seed-12 block. The blocks, their litho hotspots and
// the library are built before the timer starts.
func BenchmarkMatcherScan(b *testing.B) {
	t := tech.N45()
	trainM1, trainHS, err := drcPlusBlock(context.Background(), t, 11)
	if err != nil {
		b.Fatal(err)
	}
	testM1, _, err := drcPlusBlock(context.Background(), t, 12)
	if err != nil {
		b.Fatal(err)
	}
	m := drcPlusLibrary(trainM1, trainHS)
	anchors := len(pattern.Anchors(testM1))
	b.ReportAllocs()
	b.ResetTimer()
	var matches int
	for i := 0; i < b.N; i++ {
		matches = len(m.ScanLayer(testM1))
	}
	b.StopTimer()
	if matches == 0 {
		b.Fatal("the scan found no match: the library or the block is not drc-plus's")
	}
	b.ReportMetric(float64(anchors), "anchors")
	b.ReportMetric(float64(m.Len()), "entries")
	b.ReportMetric(float64(matches), "matches")
}
