// Command patscan builds the layout pattern catalog of one layer:
// class counts, coverage curve, and (with a second layout) the KL
// divergence and outlier classes between two designs.
//
// Usage:
//
//	patscan [-layer metal1] a.txt [b.txt]
//	patscan -gen                            (two generated blocks, seeds 1 and 2)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/pattern"
	"repro/internal/tech"
)

func main() {
	layerName := flag.String("layer", "metal1", "layer to catalog")
	gen := flag.Bool("gen", false, "generate blocks instead of reading files")
	flag.Parse()
	const radius = 200 // pattern window radius, nm

	layer, err := tech.ParseLayer(*layerName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "patscan:", err)
		os.Exit(1)
	}

	var layers [][]geom.Rect
	var names []string
	switch {
	case *gen:
		for _, s := range []int64{1, 2} {
			l, err := layout.GenerateBlock(tech.N45(), layout.BlockOpts{
				Rows: 3, RowWidth: 8000, Nets: 12, MaxFan: 3, Seed: s,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "patscan:", err)
				os.Exit(1)
			}
			layers = append(layers, layout.ByLayer(l.Flatten())[layer])
			names = append(names, fmt.Sprintf("gen-seed%d", s))
		}
	case flag.NArg() >= 1:
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "patscan:", err)
				os.Exit(1)
			}
			l, err := layout.Read(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "patscan:", err)
				os.Exit(1)
			}
			layers = append(layers, layout.ByLayer(l.Flatten())[layer])
			names = append(names, path)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: patscan [-layer L] a.txt [b.txt] | patscan -gen")
		os.Exit(2)
	}

	cats := make([]*pattern.Catalog, len(layers))
	for i, rs := range layers {
		cats[i] = pattern.NewCatalog(radius)
		n := cats[i].AddLayer(rs)
		fmt.Printf("%s (%s, r=%d): %d anchors, %d classes\n",
			names[i], layer, radius, n, cats[i].NumClasses())
		for _, k := range []int{1, 5, 10, 20} {
			fmt.Printf("  top-%-3d coverage: %.1f%%\n", k, 100*cats[i].Coverage(k))
		}
		fmt.Printf("  classes for 90%% coverage: %d\n", cats[i].ClassesFor(0.90))
		for j, cl := range cats[i].Classes() {
			if j >= 5 {
				break
			}
			fmt.Printf("  #%d id=%016x count=%d %v\n", j+1, cl.ID, cl.Count, cl.Rep)
		}
	}

	if len(cats) >= 2 {
		fmt.Printf("\nKL(A||B) = %.4f  KL(B||A) = %.4f\n",
			cats[0].KLDivergence(cats[1]), cats[1].KLDivergence(cats[0]))
		out := cats[0].Outliers(cats[1], 10, 5)
		fmt.Printf("outlier classes in A vs B (>=10x, >=5 hits): %d\n", len(out))
		for i, cl := range out {
			if i >= 5 {
				break
			}
			fmt.Printf("  id=%016x count=%d\n", cl.ID, cl.Count)
		}
	}
}
