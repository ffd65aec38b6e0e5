// Command lithosim simulates the printing of one layer of a layout:
// reports CD at the layout center, hotspots at nominal and stressed
// conditions, and optionally the focus-exposure window of the most
// central feature.
//
// Usage:
//
//	lithosim [-layer metal1] [-defocus 0] [-dose 1.0] layout.txt
//	lithosim -lines [-fem]                  (seven 70 nm lines at 70 nm space)
//
// -metrics FILE enables the observability registry and writes its
// JSON snapshot (raster-cache hits/misses, blur passes, buffer-pool
// counters, and how much of each band and printed bitmap was occupied)
// to FILE at exit, "-" meaning stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/obs"
	"repro/internal/tech"
)

func main() {
	layerName := flag.String("layer", "metal1", "layer to simulate")
	defocus := flag.Float64("defocus", 0, "defocus, nm")
	dose := flag.Float64("dose", 1.0, "relative dose")
	lines := flag.Bool("lines", false, "simulate a line/space pattern instead of a file")
	fem := flag.Bool("fem", false, "print the focus-exposure matrix of the center feature")
	metrics := flag.String("metrics", "", "write the metrics snapshot to this file at exit (\"-\" = stdout)")
	flag.Parse()

	if *metrics != "" {
		obs.SetEnabled(true)
		defer func() {
			if err := obs.DumpDefault(*metrics); err != nil {
				fmt.Fprintln(os.Stderr, "lithosim:", err)
			}
		}()
	}

	t := tech.N45()
	layer := tech.Metal1
	var rs []geom.Rect
	name := ""
	switch {
	case *lines:
		cell := layout.LineSpace(t, layer, 70, 70, 3000, 7)
		rs = cell.LayerRects(layer)
		name = cell.Name
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		l, err := layout.Read(f)
		if err != nil {
			fatal(err)
		}
		if l.Tech != nil {
			t = l.Tech
		}
		if layer, err = tech.ParseLayer(*layerName); err != nil {
			fatal(err)
		}
		rs = layout.ByLayer(l.Flatten())[layer]
		name = l.Top.Name + "/" + *layerName
	default:
		fmt.Fprintln(os.Stderr, "usage: lithosim [-layer L] layout.txt | lithosim -lines")
		os.Exit(2)
	}
	if len(rs) == 0 {
		fmt.Fprintln(os.Stderr, "lithosim: no geometry on layer")
		os.Exit(1)
	}

	cond := litho.Condition{Defocus: *defocus, Dose: *dose}
	bb := geom.BBoxOf(rs)
	fmt.Printf("%s: %d rects, extent %v, condition f=%.0fnm dose=%.2f\n",
		name, len(rs), bb, cond.Defocus, cond.Dose)

	// CD at the center of the nearest feature to the extent center.
	ctx := context.Background()
	c := bb.Center()
	img, err := litho.Simulate(ctx, rs, geom.R(c.X-1000, c.Y-1000, c.X+1000, c.Y+1000).Intersect(bb.Bloat(200)), t.Optics, cond)
	if err != nil {
		fatal(err)
	}
	cx, cy := float64(c.X), float64(c.Y)
	if cd, ok := img.CDAt(cx, cy, true); ok {
		fmt.Printf("center CD (horizontal cut): %.1f nm\n", cd)
	} else if cd, ok := img.CDAt(cx, cy, false); ok {
		fmt.Printf("center CD (vertical cut): %.1f nm\n", cd)
	} else {
		fmt.Println("center point does not print")
	}

	hs, err := litho.ScanLayer(ctx, rs, t, layer, litho.ScanOpts{Cond: cond})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("hotspots: %d\n", len(hs))
	for i, h := range hs {
		if i >= 15 {
			fmt.Printf("  ... %d more\n", len(hs)-15)
			break
		}
		fmt.Println(" ", h)
	}

	if *fem {
		defocusList := []float64{0, 40, 80, 120, 160}
		doseList := []float64{0.92, 0.96, 1.0, 1.04, 1.08}
		nom, err := litho.Simulate(ctx, rs, bb.Bloat(200), t.Optics, litho.Nominal)
		if err != nil {
			fatal(err)
		}
		cd0, ok := nom.CDAt(cx, cy, true)
		if !ok {
			fmt.Println("fem: center feature does not print at nominal")
			return
		}
		spec := litho.CDSpec{Target: cd0, Tol: 0.10}
		rm := litho.NewRasterMask(rs, bb.Bloat(200), t.Optics, defocusList[len(defocusList)-1])
		pts, err := rm.FEMatrix(ctx, cx, cy, true, spec, defocusList, doseList)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("focus-exposure matrix (target %.1fnm +-10%%):\n      ", cd0)
		for _, d := range doseList {
			fmt.Printf("%7.2f", d)
		}
		fmt.Println()
		i := 0
		for _, f := range defocusList {
			fmt.Printf("f%4.0f ", f)
			for range doseList {
				p := pts[i]
				mark := " "
				if p.OK {
					mark = "*"
				}
				fmt.Printf("%6.1f%s", p.CD, mark)
				i++
			}
			fmt.Println()
		}
		fmt.Printf("depth of focus: %.0f nm\n", litho.DepthOfFocus(pts, defocusList))
	}
}

// fatal reports err and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lithosim:", err)
	os.Exit(1)
}
