package geom

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The per-coordinate boundary extraction BoundaryEdges used before it
// became one pass over sorted rect sides: for every distinct y (and x)
// it rescans the whole layer for the coverage on each side of the line
// and differences the two. Quadratic in distinct coordinates × rects,
// obviously right, kept here as the differential-test oracle.

func boundaryEdgesOracle(rs []Rect) []Edge {
	norm := Normalize(rs)
	if len(norm) == 0 {
		return nil
	}
	var edges []Edge
	edges = append(edges, horizontalBoundary(norm)...)
	edges = append(edges, verticalBoundary(norm)...)
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.P0.Y != b.P0.Y {
			return a.P0.Y < b.P0.Y
		}
		if a.P0.X != b.P0.X {
			return a.P0.X < b.P0.X
		}
		return a.Interior < b.Interior
	})
	return edges
}

// horizontalBoundary finds maximal horizontal boundary segments by
// comparing slab coverage below and above every candidate y.
func horizontalBoundary(norm []Rect) []Edge {
	ys := make([]int64, 0, 2*len(norm))
	for _, r := range norm {
		ys = append(ys, r.Y0, r.Y1)
	}
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	ys = dedup64(ys)

	var edges []Edge
	for _, y := range ys {
		below := coverageAtY(norm, y, false)
		above := coverageAtY(norm, y, true)
		// Bottom edges: covered above, not below -> interior Above.
		for _, iv := range combineIntervals(above, below, func(a, b bool) bool { return a && !b }) {
			edges = append(edges, Edge{Point{iv.lo, y}, Point{iv.hi, y}, Above})
		}
		// Top edges: covered below, not above -> interior Below.
		for _, iv := range combineIntervals(below, above, func(a, b bool) bool { return a && !b }) {
			edges = append(edges, Edge{Point{iv.lo, y}, Point{iv.hi, y}, Below})
		}
	}
	return edges
}

// coverageAtY returns the merged x-intervals covered immediately above
// (above=true) or below y.
func coverageAtY(norm []Rect, y int64, above bool) []interval {
	var iv []interval
	for _, r := range norm {
		if above && r.Y0 <= y && r.Y1 > y {
			iv = append(iv, interval{r.X0, r.X1})
		}
		if !above && r.Y0 < y && r.Y1 >= y {
			iv = append(iv, interval{r.X0, r.X1})
		}
	}
	return mergeIntervals(iv)
}

// verticalBoundary mirrors horizontalBoundary with x and y swapped.
func verticalBoundary(norm []Rect) []Edge {
	xs := make([]int64, 0, 2*len(norm))
	for _, r := range norm {
		xs = append(xs, r.X0, r.X1)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	xs = dedup64(xs)

	var edges []Edge
	for _, x := range xs {
		left := coverageAtX(norm, x, false)
		right := coverageAtX(norm, x, true)
		// Left edges: covered right, not left -> interior Right.
		for _, iv := range combineIntervals(right, left, func(a, b bool) bool { return a && !b }) {
			edges = append(edges, Edge{Point{x, iv.lo}, Point{x, iv.hi}, Right})
		}
		// Right edges: covered left, not right -> interior Left.
		for _, iv := range combineIntervals(left, right, func(a, b bool) bool { return a && !b }) {
			edges = append(edges, Edge{Point{x, iv.lo}, Point{x, iv.hi}, Left})
		}
	}
	return edges
}

// coverageAtX returns the merged y-intervals covered immediately to the
// right (right=true) or left of x.
func coverageAtX(norm []Rect, x int64, right bool) []interval {
	var iv []interval
	for _, r := range norm {
		if right && r.X0 <= x && r.X1 > x {
			iv = append(iv, interval{r.Y0, r.Y1})
		}
		if !right && r.X0 < x && r.X1 >= x {
			iv = append(iv, interval{r.Y0, r.Y1})
		}
	}
	return mergeIntervals(iv)
}

// checkBoundaryEdges compares BoundaryEdges with the oracle on rs and
// checks what any correct answer satisfies: every edge has length, the
// up-facing and down-facing (left- and right-facing) edges pair off in
// total length, and no edge starts where another of its kind ends —
// the two would be one maximal run split in two.
func checkBoundaryEdges(t testing.TB, rs []Rect) {
	t.Helper()
	got, want := BoundaryEdges(rs), boundaryEdgesOracle(rs)
	if !slices.Equal(got, want) {
		t.Fatalf("BoundaryEdges(%v)\n got %v\nwant %v", rs, got, want)
	}
	// The sweep-order form is the same edges unsorted: horizontal ones
	// first by rising y, then vertical ones by rising x.
	sweep := BoundaryOfNormal(Normalize(rs))
	for i := 1; i < len(sweep); i++ {
		p, e := sweep[i-1], sweep[i]
		switch {
		case p.Horizontal() && e.Horizontal() && p.P0.Y > e.P0.Y,
			!p.Horizontal() && !e.Horizontal() && p.P0.X > e.P0.X,
			!p.Horizontal() && e.Horizontal():
			t.Fatalf("BoundaryOfNormal(%v): %v before %v", rs, p, e)
		}
	}
	slices.SortFunc(sweep, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.P0.Y, b.P0.Y), cmp.Compare(a.P0.X, b.P0.X), cmp.Compare(a.Interior, b.Interior))
	})
	if !slices.Equal(sweep, got) {
		t.Fatalf("BoundaryOfNormal(%v) sorted\n got %v\nwant %v", rs, sweep, got)
	}
	type start struct {
		at   Point
		side Side
	}
	starts := make(map[start]bool, len(got))
	for _, e := range got {
		starts[start{e.P0, e.Interior}] = true
	}
	var length [4]int64
	for _, e := range got {
		if e.Length() <= 0 {
			t.Fatalf("edge %v has no length", e)
		}
		length[e.Interior] += e.Length()
		if starts[start{e.P1, e.Interior}] {
			t.Fatalf("edge %v continues in another of its kind", e)
		}
	}
	if length[Above] != length[Below] || length[Left] != length[Right] {
		t.Fatalf("facing edge lengths do not pair: %v for %v", length, rs)
	}
}

func TestBoundaryEdgesMatchOracle(t *testing.T) {
	cases := map[string][]Rect{
		"empty":         nil,
		"only-empty":    {R(5, 5, 5, 9)},
		"single":        {R(0, 0, 10, 5)},
		"abutting":      {R(0, 0, 10, 10), R(10, 0, 20, 10)},
		"stacked":       {R(0, 0, 10, 10), R(0, 10, 10, 20)},
		"L":             {R(0, 0, 30, 10), R(0, 10, 10, 30)},
		"T":             {R(0, 20, 30, 30), R(10, 0, 20, 20)},
		"ring":          {R(0, 0, 30, 10), R(0, 20, 30, 30), R(0, 10, 10, 20), R(20, 10, 30, 20)},
		"corner-touch":  {R(0, 0, 10, 10), R(10, 10, 20, 20)},
		"checkerboard":  {R(0, 0, 10, 10), R(20, 0, 30, 10), R(10, 10, 20, 20), R(0, 20, 10, 30), R(20, 20, 30, 30)},
		"overlapping":   {R(0, 0, 20, 20), R(10, 10, 30, 30), R(5, 5, 25, 8)},
		"notch":         {R(0, 0, 30, 10), R(0, 10, 10, 20), R(20, 10, 30, 20)},
		"negative":      {R(-30, -30, -10, -10), R(-10, -20, 5, -15)},
		"shared-corner": {R(0, 0, 10, 10), R(10, 0, 20, 5), R(10, 5, 20, 10), R(0, 10, 20, 12)},
	}
	for name, rs := range cases {
		t.Run(name, func(t *testing.T) { checkBoundaryEdges(t, rs) })
	}
	rnd := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		checkBoundaryEdges(t, randRects(rnd, 1+rnd.Intn(24), 40))
	}
}

// FuzzBoundaryEdges feeds random overlapping rect sets, decoded from
// the fuzzer's bytes on a small grid so that shared sides, corner
// contacts and holes are common, to the same comparison.
func FuzzBoundaryEdges(f *testing.F) {
	f.Add([]byte{0, 0, 10, 5})
	f.Add([]byte{0, 0, 30, 10, 0, 10, 10, 20, 20, 10, 10, 10})
	f.Add([]byte{0, 0, 10, 10, 10, 10, 10, 10, 5, 5, 10, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rs []Rect
		for ; len(data) >= 4 && len(rs) < 64; data = data[4:] {
			x, y := int64(data[0]%32)-8, int64(data[1]%32)-8
			rs = append(rs, R(x, y, x+int64(data[2]%12), y+int64(data[3]%12)))
		}
		checkBoundaryEdges(t, rs)
	})
}
