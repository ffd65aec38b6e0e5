// Command drccheck runs the standard DRC deck over a layout file in the
// godfm text format, or over a freshly generated block, and prints the
// count per rule and the first violations.
//
// Usage:
//
//	drccheck layout.txt
//	drccheck -gen -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/drc"
	"repro/internal/layout"
	"repro/internal/tech"
)

func main() {
	gen := flag.Bool("gen", false, "generate a block instead of reading a file")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Parse()
	const maxPrint = 20 // violations to print

	var l *layout.Layout
	var err error
	switch {
	case *gen:
		l, err = layout.GenerateBlock(tech.N45(), layout.BlockOpts{
			Rows: 4, RowWidth: 12000, Nets: 20, MaxFan: 4, Seed: *seed,
		})
	case flag.NArg() == 1:
		var f *os.File
		f, err = os.Open(flag.Arg(0))
		if err == nil {
			defer f.Close()
			l, err = layout.Read(f)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: drccheck layout.txt | drccheck -gen [-seed N]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "drccheck:", err)
		os.Exit(1)
	}
	t := l.Tech
	if t == nil {
		t = tech.N45()
	}

	flat := l.Flatten()
	ctx := drc.NewContext(t, flat)
	res := drc.StandardDeck(t).Run(ctx)
	fmt.Printf("%s: %d shapes, %d violations\n", l.Top.Name, len(flat), res.Count())
	for rule, n := range res.ByRule {
		if n > 0 {
			fmt.Printf("  %-28s %d\n", rule, n)
		}
	}
	for i, v := range res.Violations {
		if i >= maxPrint {
			fmt.Printf("  ... %d more\n", res.Count()-maxPrint)
			break
		}
		fmt.Println(" ", v)
	}
	if res.Count() > 0 {
		os.Exit(1)
	}
}
