// Hotspot flow: the DRC Plus methodology end to end. Litho-simulate a
// "test chip" design at a stressed process corner to find printability
// hotspots, cluster them into root-cause classes, extract a pattern
// library, then scan a *different* "product" design with the library
// and compare capture against plain DRC.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/pattern"
	"repro/internal/tech"
)

const radius = 200

func m1Layer(t *tech.Tech, seed int64) []geom.Rect {
	l, err := layout.GenerateBlock(t, layout.BlockOpts{
		Rows: 2, RowWidth: 6000, Nets: 8, MaxFan: 3, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return geom.Normalize(layout.ByLayer(l.Flatten())[tech.Metal1])
}

func scan(t *tech.Tech, m1 []geom.Rect, cond litho.Condition) []litho.Hotspot {
	hs, err := litho.ScanLayer(context.Background(), m1, t, tech.Metal1, litho.ScanOpts{Cond: cond})
	if err != nil {
		log.Fatal(err)
	}
	return hs
}

func main() {
	t := tech.N45()
	stress := litho.Condition{Defocus: 110, Dose: 0.95}

	// Phase 1: hotspot discovery on the test chip.
	train := m1Layer(t, 11)
	trainHS := scan(t, train, stress)
	fmt.Printf("test chip: %d hotspots at defocus %.0f / dose %.2f\n",
		len(trainHS), stress.Defocus, stress.Dose)

	// Phase 2: cluster the hotspots into root-cause classes.
	ix := geom.IndexOf(4*radius, train)
	anchors := pattern.Anchors(train)
	cl := pattern.NewClusterer(0.75, true)
	var pats []pattern.Pattern
	var ats []geom.Point
	for _, h := range trainHS {
		a, ok := nearest(anchors, h.Box.Center())
		if !ok {
			continue
		}
		p := pattern.ExtractAtIndexed(ix, a, radius)
		if p.Empty() {
			continue
		}
		cl.Add(p, a)
		pats = append(pats, p)
		ats = append(ats, a)
	}
	fmt.Printf("clustered into %d pattern classes:\n", cl.Len())
	for i, c := range cl.Clusters() {
		fmt.Printf("  class %d: %d occurrences, rep %v\n", i, c.Count, c.Rep)
	}

	// Phase 3: build the exact-match library and scan the product.
	m := pattern.NewMatcher(radius)
	for i, p := range pats {
		m.AddEntry(&pattern.LibEntry{Name: fmt.Sprintf("hs%d", i), P: p, Exact: true})
	}
	test := m1Layer(t, 12)
	testHS := scan(t, test, stress)
	matches := m.ScanLayer(test)

	caught := 0
	for _, h := range testHS {
		for _, mt := range matches {
			if h.Box.Center().ChebyshevDist(mt.At) <= 400 {
				caught++
				break
			}
		}
	}
	// Plain DRC baseline.
	shapes := make([]layout.Shape, len(test))
	for i, r := range test {
		shapes[i] = layout.Shape{Layer: tech.Metal1, R: r, Net: layout.NoNet}
	}
	res := drc.StandardDeck(t).Run(drc.NewContext(t, shapes))
	drcCaught := 0
	for _, h := range testHS {
		for _, v := range res.Violations {
			if v.Marker.Bloat(300).Overlaps(h.Box) {
				drcCaught++
				break
			}
		}
	}

	fmt.Printf("\nproduct design: %d hotspots (ground truth)\n", len(testHS))
	fmt.Printf("  plain DRC capture:   %d/%d\n", drcCaught, len(testHS))
	fmt.Printf("  DRC Plus capture:    %d/%d (%d library patterns, %d matches flagged)\n",
		caught, len(testHS), m.Len(), len(matches))
}

func nearest(anchors []geom.Point, p geom.Point) (geom.Point, bool) {
	best := geom.Point{}
	bestD := int64(400) + 1
	for _, a := range anchors {
		if d := a.ChebyshevDist(p); d < bestD {
			best, bestD = a, d
		}
	}
	return best, bestD <= 400
}
