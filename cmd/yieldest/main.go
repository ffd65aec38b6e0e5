// Command yieldest estimates defect-limited yield for a layout:
// per-layer short/open critical areas, Poisson and negative-binomial
// yields, via redundancy statistics, and optionally a Monte Carlo
// defect-injection cross-check and a redundant-via what-if.
//
// Usage:
//
//	yieldest [-mc 20000] [-dvia] layout.txt
//	yieldest -gen [-mc 20000] [-dvia]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/dvia"
	"repro/internal/layout"
	"repro/internal/tech"
	yieldpkg "repro/internal/yield"
)

func main() {
	gen := flag.Bool("gen", false, "generate a block instead of reading a file")
	mc := flag.Int("mc", 0, "Monte Carlo defect trials (0 = skip)")
	whatIf := flag.Bool("dvia", false, "evaluate redundant-via insertion")
	flag.Parse()

	var l *layout.Layout
	var err error
	switch {
	case *gen:
		l, err = layout.GenerateBlock(tech.N45(), layout.BlockOpts{
			Rows: 4, RowWidth: 12000, Nets: 25, MaxFan: 4, Seed: 1,
		})
	case flag.NArg() == 1:
		var f *os.File
		f, err = os.Open(flag.Arg(0))
		if err == nil {
			defer f.Close()
			l, err = layout.Read(f)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: yieldest [-mc N] [-dvia] layout.txt | yieldest -gen")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "yieldest:", err)
		os.Exit(1)
	}
	t := l.Tech
	if t == nil {
		t = tech.N45()
	}

	flat := l.Flatten()
	rep := yieldpkg.AnalyzeChip(flat, t)
	fmt.Printf("%s: D0=%.2f/cm2, x in [%.0f, %.0f]nm, alpha=%.1f\n",
		l.Top.Name, t.Defects.D0, t.Defects.X0, t.Defects.XMax, t.Defects.Alpha)
	fmt.Printf("%-8s %14s %14s %8s %8s %8s\n", "layer", "shortAC nm2", "openAC nm2", "Yshort", "Yopen", "Y")
	for _, lr := range rep.Layers {
		fmt.Printf("%-8s %14.3g %14.3g %8.5f %8.5f %8.5f\n",
			lr.Layer, lr.ShortAC, lr.OpenAC, lr.YShort, lr.YOpen, lr.YCombined)
	}
	fmt.Printf("vias: %d total, %d redundant pairs, Yvia=%.6f\n", rep.NVias, rep.NPairs, rep.YVia)
	fmt.Printf("total yield: %.5f\n", rep.YTotal)

	if *mc > 0 {
		res := yieldpkg.MonteCarlo(flat, tech.Metal2, t.Defects, *mc, rand.New(rand.NewSource(99)))
		fmt.Printf("monte carlo (metal2, %d trials): %d shorts, %d opens\n",
			res.Trials, res.Shorts, res.Opens)
	}
	if *whatIf {
		g, err := dvia.EvaluateInsertion(context.Background(), flat, t)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yieldest:", err)
			os.Exit(1)
		}
		fmt.Printf("redundant-via what-if: singles %d -> %d, Yvia %.6f -> %.6f (%d cuts added)\n",
			g.SinglesBefore, g.SinglesAfter, g.Before, g.After, g.AddedCuts)
	}
}
