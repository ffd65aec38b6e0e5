// Quickstart: generate a placed-and-routed block, run the three
// baseline analyses every DFM flow starts from — design rule checking,
// printability hotspot scanning, and defect-limited yield estimation —
// and print a one-page summary.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
	yieldpkg "repro/internal/yield"
)

func main() {
	t := tech.N45()
	fmt.Printf("node %s: metal1 half-pitch %dnm, k1 = %.2f\n", t.Name, t.HalfPitch(), t.K1())

	// 1. Generate a synthetic placed-and-routed block.
	l, err := layout.GenerateBlock(t, layout.BlockOpts{
		Rows: 4, RowWidth: 12000, Nets: 25, MaxFan: 4, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	flat := l.Flatten()
	st := layout.Summarize(flat)
	fmt.Printf("block %s: %d shapes, %d nets, extent %v\n",
		l.Top.Name, st.Shapes, st.NetCount, st.BBox)

	// 2. DRC signoff.
	res := drc.StandardDeck(t).Run(drc.NewContext(t, flat))
	fmt.Printf("DRC: %d violations\n", res.Count())

	// 3. Printability: scan metal1 at a stressed process corner.
	m1 := geom.Normalize(layout.ByLayer(flat)[tech.Metal1])
	hs, err := litho.ScanLayer(context.Background(), m1, t, tech.Metal1,
		litho.ScanOpts{Cond: litho.Condition{Defocus: 110, Dose: 0.95}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("litho hotspots at defocus 110nm / dose 0.95: %d\n", len(hs))
	for i, h := range hs {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(hs)-5)
			break
		}
		fmt.Printf("  %v\n", h)
	}

	// 4. Defect-limited (random) yield.
	rep := yieldpkg.AnalyzeChip(flat, t)
	fmt.Printf("random-defect yield: %.5f (vias: %d, redundant pairs: %d)\n",
		rep.YTotal, rep.NVias, rep.NPairs)
	for _, lr := range rep.Layers {
		fmt.Printf("  %-8s shortAC %.3g nm2  openAC %.3g nm2  Y %.5f\n",
			lr.Layer, lr.ShortAC, lr.OpenAC, lr.YCombined)
	}

	// 5. Systematic (design-induced) yield from the hotspot count, and
	// the wafer economics that make the DFM argument concrete.
	sites := yieldpkg.UniformSites(len(hs), yieldpkg.SeverityToPFail(0.4, 0.01))
	ySys := yieldpkg.SystematicYield(sites)
	yTotal := yieldpkg.TotalYield(rep.YTotal, sites)
	fmt.Printf("systematic yield (from %d hotspots): %.5f; total: %.5f\n",
		len(hs), ySys, yTotal)

	w := yieldpkg.Wafer300(8, 8) // an 8x8 mm die
	extra, costChange := w.YieldDelta(5000, yTotal, rep.YTotal)
	fmt.Printf("wafer economics (300mm, $5000/wafer): fixing every hotspot buys %.0f die/wafer (%.1f%% cost per die)\n",
		extra, 100*costChange)
}
