package layout

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/tech"
)

// This file implements the text serialization used by the cmd tools:
// a line-oriented format (one shape, pin, or instance per line) chosen
// over GDSII because the repository must remain stdlib-only and
// human-diffable.
//
//	# comment
//	tech N45
//	cell INVX1
//	rect metal1 0 0 70 1400 net 2
//	pin A poly 95 600 140 800 net 0
//	inst TAP R0 2800 0 tap_0
//	end
//	top CHIP

var orientNames = map[string]geom.Orient{
	"R0": geom.R0, "R90": geom.R90, "R180": geom.R180, "R270": geom.R270,
	"MX": geom.MX, "MX90": geom.MX90, "MY": geom.MY, "MY90": geom.MY90,
}

// Write serializes the layout. Cells are written children-first so a
// single forward pass can resolve instances on read.
func Write(w io.Writer, l *Layout) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# godfm layout v1")
	if l.Tech != nil {
		fmt.Fprintf(bw, "tech %s\n", l.Tech.Name)
	}

	order, err := topoOrder(l)
	if err != nil {
		return err
	}
	for _, c := range order {
		fmt.Fprintf(bw, "cell %s\n", c.Name)
		for _, s := range c.Shapes {
			if s.Net == NoNet {
				fmt.Fprintf(bw, "rect %s %d %d %d %d\n", s.Layer, s.R.X0, s.R.Y0, s.R.X1, s.R.Y1)
			} else {
				fmt.Fprintf(bw, "rect %s %d %d %d %d net %d\n", s.Layer, s.R.X0, s.R.Y0, s.R.X1, s.R.Y1, s.Net)
			}
		}
		for _, p := range c.Pins {
			fmt.Fprintf(bw, "pin %s %s %d %d %d %d net %d\n", p.Name, p.Layer, p.R.X0, p.R.Y0, p.R.X1, p.R.Y1, p.Net)
		}
		for _, in := range c.Insts {
			fmt.Fprintf(bw, "inst %s %s %d %d %s\n", in.Cell.Name, in.T.Orient, in.T.Offset.X, in.T.Offset.Y, in.Name)
		}
		fmt.Fprintln(bw, "end")
	}
	if l.Top != nil {
		fmt.Fprintf(bw, "top %s\n", l.Top.Name)
	}
	return bw.Flush()
}

// topoOrder returns cells children-before-parents, detecting cycles.
func topoOrder(l *Layout) ([]*Cell, error) {
	names := make([]string, 0, len(l.Cells))
	for n := range l.Cells {
		names = append(names, n)
	}
	sort.Strings(names)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int)
	var order []*Cell
	var visit func(c *Cell) error
	visit = func(c *Cell) error {
		switch state[c.Name] {
		case gray:
			return fmt.Errorf("layout: instance cycle through cell %q", c.Name)
		case black:
			return nil
		}
		state[c.Name] = gray
		for _, in := range c.Insts {
			if err := visit(in.Cell); err != nil {
				return err
			}
		}
		state[c.Name] = black
		order = append(order, c)
		return nil
	}
	for _, n := range names {
		if err := visit(l.Cells[n]); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// maxReadRects bounds the shapes a layout read from a file may flatten
// to: 16x the 1M-rect chip dfmscore generates, about 0.8 GB of Shapes.
// A line is capped, but what a few lines expand to is not: 64 cells
// that each place the one before twice take 3 KB and flatten to 2^64.
const maxReadRects = 1 << 24

// Read parses a layout written by Write. The technology is resolved by
// name against the built-in nodes; an unknown or missing tech line
// leaves Tech nil. A top cell that flattens to more than maxReadRects
// shapes is refused, counted by Extents without flattening it.
func Read(r io.Reader) (*Layout, error) {
	l := &Layout{Cells: make(map[string]*Cell)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var cur *Cell
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(msg string) error {
			return fmt.Errorf("layout: line %d: %s: %q", lineNo, msg, line)
		}
		switch f[0] {
		case "tech":
			if len(f) != 2 {
				return nil, fail("malformed tech")
			}
			switch f[1] {
			case "N45":
				l.Tech = tech.N45()
			case "N45R":
				l.Tech = tech.N45R()
			}
		case "cell":
			if len(f) != 2 {
				return nil, fail("malformed cell")
			}
			if cur != nil {
				return nil, fail("nested cell")
			}
			if _, dup := l.Cells[f[1]]; dup {
				return nil, fail("duplicate cell")
			}
			cur = NewCell(f[1])
		case "end":
			if cur == nil {
				return nil, fail("end without cell")
			}
			l.Cells[cur.Name] = cur
			cur = nil
		case "rect":
			if cur == nil {
				return nil, fail("rect outside cell")
			}
			if len(f) != 6 && len(f) != 8 {
				return nil, fail("malformed rect")
			}
			lay, err := tech.ParseLayer(f[1])
			if err != nil {
				return nil, fail(err.Error())
			}
			coords, err := parseInts(f[2:6])
			if err != nil {
				return nil, fail(err.Error())
			}
			net := NoNet
			if len(f) == 8 {
				if f[6] != "net" {
					return nil, fail("expected 'net'")
				}
				n, err := strconv.ParseInt(f[7], 10, 32)
				if err != nil {
					return nil, fail(err.Error())
				}
				net = NetID(n)
			}
			cur.AddNet(lay, geom.R(coords[0], coords[1], coords[2], coords[3]), net)
		case "pin":
			if cur == nil {
				return nil, fail("pin outside cell")
			}
			if len(f) != 9 || f[7] != "net" {
				return nil, fail("malformed pin")
			}
			lay, err := tech.ParseLayer(f[2])
			if err != nil {
				return nil, fail(err.Error())
			}
			coords, err := parseInts(f[3:7])
			if err != nil {
				return nil, fail(err.Error())
			}
			n, err := strconv.ParseInt(f[8], 10, 32)
			if err != nil {
				return nil, fail(err.Error())
			}
			// Register the pin metadata only: Write already emitted the
			// pin's backing shape as a rect line, so using AddPin here
			// would duplicate it.
			cur.Pins = append(cur.Pins, Pin{
				Name:  f[1],
				Layer: lay,
				R:     geom.R(coords[0], coords[1], coords[2], coords[3]),
				Net:   NetID(n),
			})
		case "inst":
			if cur == nil {
				return nil, fail("inst outside cell")
			}
			if len(f) != 5 && len(f) != 6 {
				return nil, fail("malformed inst")
			}
			child, ok := l.Cells[f[1]]
			if !ok {
				return nil, fail("instance of unknown cell (cells must be defined before use)")
			}
			o, ok := orientNames[f[2]]
			if !ok {
				return nil, fail("unknown orientation")
			}
			coords, err := parseInts(f[3:5])
			if err != nil {
				return nil, fail(err.Error())
			}
			name := ""
			if len(f) == 6 {
				name = f[5]
			}
			cur.Place(child, geom.Transform{Orient: o, Offset: geom.Pt(coords[0], coords[1])}, name)
		case "top":
			if len(f) != 2 {
				return nil, fail("malformed top")
			}
			if err := l.SetTop(f[1]); err != nil {
				return nil, fail(err.Error())
			}
		default:
			return nil, fail("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("layout: unterminated cell %q", cur.Name)
	}
	if len(l.Cells) == 0 {
		// Every caller goes on to use Top, which only a cell can be.
		return nil, errors.New("layout: file defines no cell")
	}
	if l.Top == nil {
		// Fall back to any cell that is not instantiated by another.
		used := make(map[string]bool)
		for _, c := range l.Cells {
			for _, in := range c.Insts {
				used[in.Cell.Name] = true
			}
		}
		var tops []string
		for n := range l.Cells {
			if !used[n] {
				tops = append(tops, n)
			}
		}
		sort.Strings(tops)
		if len(tops) > 0 {
			l.Top = l.Cells[tops[0]]
		}
	}
	if n := Extents(l.Top)[l.Top].Rects; n > maxReadRects {
		return nil, fmt.Errorf("layout: top cell %q flattens to %d shapes, over the bound of %d", l.Top.Name, n, maxReadRects)
	}
	return l, nil
}

func parseInts(f []string) ([]int64, error) {
	out := make([]int64, len(f))
	for i, s := range f {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
