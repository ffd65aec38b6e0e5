package geom

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Differential property tests: the sweep-line engine (sweep.go, the
// production path) must agree exactly with the retained legacy slab
// engine (slab_test.go) on randomized rect sets. The two implementations
// share almost no code — slab decomposition rescans all rects per slab
// and sorts its output; the sweep maintains incremental active lists
// and emits in canonical order — so byte-for-byte agreement across
// thousands of random cases is strong evidence both are right. Seeds
// are logged so any failure replays deterministically.

// randRects draws n rects with coordinates in [-span, span], biased
// toward small rects so overlap/abutment cases are dense. Roughly 10%
// are degenerate (empty) to exercise filtering.
func randRects(rng *rand.Rand, n int, span int64) []Rect {
	rs := make([]Rect, n)
	for i := range rs {
		x := rng.Int63n(2*span) - span
		y := rng.Int63n(2*span) - span
		var w, h int64
		if rng.Intn(10) == 0 {
			// Degenerate: zero width and/or height.
			w, h = rng.Int63n(2), 0
		} else {
			w, h = 1+rng.Int63n(span/2), 1+rng.Int63n(span/2)
		}
		rs[i] = Rect{x, y, x + w, y + h}
	}
	return rs
}

func sameRects(a, b []Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSweepMatchesSlabDifferential(t *testing.T) {
	ops := []struct {
		name  string
		kind  opKind
		sweep func(a, b []Rect) []Rect
		slab  func(a, b []Rect) []Rect
	}{
		{"Union", opUnion, Union, slabUnion},
		{"Intersect", opIntersect, Intersect, slabIntersect},
		{"Subtract", opSubtract, Subtract, slabSubtract},
	}

	cases := 400
	if testing.Short() {
		cases = 60
	}
	for c := 0; c < cases; c++ {
		seed := rand.Int63()
		rng := rand.New(rand.NewSource(seed))
		na, nb := rng.Intn(40), rng.Intn(40)
		span := int64(8 + rng.Intn(200))
		a := randRects(rng, na, span)
		b := randRects(rng, nb, span)

		for _, op := range ops {
			got := op.sweep(a, b)
			want := op.slab(a, b)
			if !sameRects(got, want) {
				t.Fatalf("seed=%d %s: sweep and slab disagree\n a=%v\n b=%v\n sweep=%v\n slab=%v",
					seed, op.name, a, b, got, want)
			}
			if !IsNormal(got) {
				t.Fatalf("seed=%d %s: sweep output not canonical: %v", seed, op.name, got)
			}
			// Area invariant: materialized area must match the
			// area-only sweep.
			var sum int64
			for _, r := range got {
				sum += r.Area()
			}
			if got := sweepArea(op.kind, a, b); got != sum {
				t.Fatalf("seed=%d %s: sweepArea=%d, materialized=%d", seed, op.name, got, sum)
			}
		}

		// Normalize: sweep union-of-one-set vs slab normalize.
		gotN := Normalize(a)
		wantN := slabNormalize(a)
		if !sameRects(gotN, wantN) {
			t.Fatalf("seed=%d Normalize: sweep=%v slab=%v (a=%v)", seed, gotN, wantN, a)
		}

		// UnionAll over k slices must equal chained pairwise unions.
		k := 1 + rng.Intn(4)
		sets := make([][]Rect, k)
		for i := range sets {
			sets[i] = randRects(rng, rng.Intn(15), span)
		}
		gotU := UnionAll(sets...)
		var wantU []Rect
		for _, s := range sets {
			wantU = slabUnion(wantU, s)
		}
		if !sameRects(gotU, wantU) {
			t.Fatalf("seed=%d UnionAll: sweep=%v chained-slab=%v", seed, gotU, wantU)
		}

		// Area queries (the covered-once and binary rules summed, not
		// banded) vs the area of the materialized slab region.
		if got, want := UnionArea(a, b), AreaOf(slabUnion(a, b)); got != want {
			t.Fatalf("seed=%d UnionArea=%d want=%d", seed, got, want)
		}
		if got, want := IntersectArea(a, b), AreaOf(slabIntersect(a, b)); got != want {
			t.Fatalf("seed=%d IntersectArea=%d want=%d", seed, got, want)
		}
		mixed := append(append([]Rect{}, a...), b...)
		if got, want := AreaOf(mixed), AreaOf(slabNormalize(mixed)); got != want {
			t.Fatalf("seed=%d AreaOf(mixed)=%d want=%d", seed, got, want)
		}

		// The covered-twice rule vs the union of the materialized
		// pairwise slab intersections of k operand sets, given both in
		// normal form and raw (overlapping within a set, which must not
		// count as cross-set overlap).
		kk := 2 + rng.Intn(3)
		raw := make([][]Rect, kk)
		csets := make([][]Rect, kk)
		for i := range csets {
			raw[i] = randRects(rng, rng.Intn(12), span)
			csets[i] = slabNormalize(raw[i])
		}
		if got, want := DoubleCoverArea(csets...), pairwiseArea(csets); got != want {
			t.Fatalf("seed=%d DoubleCoverArea=%d want=%d", seed, got, want)
		}
		if got, want := DoubleCoverArea(raw...), pairwiseArea(csets); got != want {
			t.Fatalf("seed=%d DoubleCoverArea(raw)=%d want=%d (sets=%v)", seed, got, want, raw)
		}

		// ClipArea vs materialized intersection with the clip rect.
		clip := Rect{-span / 2, -span / 2, span / 2, span / 2}
		if got, want := ClipArea(a, clip), AreaOf(slabIntersect(a, []Rect{clip})); got != want {
			t.Fatalf("seed=%d ClipArea=%d want=%d (a=%v)", seed, got, want, a)
		}
	}
}

// pairwiseArea is the area covered by at least two of the sets, built
// by the slab oracle as the union of every pairwise intersection.
func pairwiseArea(sets [][]Rect) int64 {
	var pairs []Rect
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			pairs = append(pairs, slabIntersect(sets[i], sets[j])...)
		}
	}
	return AreaOf(slabNormalize(pairs))
}

// TestSweepConcurrent drives pooled sweepers from many goroutines so
// the -race gate in make tier1 exercises the sync.Pool scratch reuse.
// Each goroutine interleaves all five coverage rules, so a sweeper
// handed back by the pool under one rule is loaded under the next, and
// iterator state load fails to reset shows up as a wrong answer. The
// boundary extraction shares keysort's pool with the sweep and has a
// pool of its own, so it runs among them.
func TestSweepConcurrent(t *testing.T) {
	seed := rand.Int63()
	t.Logf("seed=%d", seed)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < 50; i++ {
				a := randRects(rng, 20, 100)
				b := randRects(rng, 20, 100)
				var bad string
				switch {
				case !sameRects(Union(a, b), slabUnion(a, b)):
					bad = "Union"
				case DoubleCoverArea(a, b) != AreaOf(slabIntersect(a, b)):
					bad = "DoubleCoverArea"
				case !sameRects(Subtract(a, b), slabSubtract(a, b)):
					bad = "Subtract"
				case UnionArea(a, b) != AreaOf(slabUnion(a, b)):
					bad = "UnionArea"
				case !sameRects(Intersect(a, b), slabIntersect(a, b)):
					bad = "Intersect"
				case !sameRects(Normalize(a), slabNormalize(a)):
					bad = "Normalize"
				case IntersectArea(a, b) != AreaOf(slabIntersect(a, b)):
					bad = "IntersectArea"
				case !slices.Equal(BoundaryEdges(a), boundaryEdgesOracle(a)):
					bad = "BoundaryEdges"
				}
				if bad != "" {
					done <- fmt.Errorf("goroutine %d iter %d: %s disagrees with the slab oracle", g, i, bad)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// regionSets decodes fuzz bytes into 1–5 rect sets on a small grid
// around the origin, so that negative, zero-width, touching, duplicate
// and nested rects are all common: the first byte picks the number of
// sets, then each five bytes are one rect (set, x, y, width, height),
// up to 400 rects. A coordinate byte of 24 or more also moves the rect
// to a far cell: byte/24 (up to 10) times 2^far, where far is 6 plus
// the first byte over 5, up to 57. Ys spread over 2^58 leave too few
// bits to pack beside the index of 33 events or more, so the sweep falls
// back to its comparator sort; 320 rects or more in one operation put
// it past keysort's radix cutoff.
func regionSets(data []byte) [][]Rect {
	if len(data) == 0 {
		return [][]Rect{nil}
	}
	sets := make([][]Rect, 1+int(data[0])%5)
	far := 6 + uint(data[0])/5
	data = data[1:]
	coord := func(b byte) int64 { return int64(b%24) - 8 + int64(b/24)<<far }
	for n := 0; len(data) >= 5 && n < 400; n++ {
		i := int(data[0]) % len(sets)
		x, y := coord(data[1]), coord(data[2])
		sets[i] = append(sets[i], Rect{x, y, x + int64(data[3]%10), y + int64(data[4]%10)})
		data = data[5:]
	}
	return sets
}

// regionSeeds are the seeds of FuzzRegionOps past the hand-written
// ones: two operands spread over 2^59, and one set of 360 rects.
func regionSeeds() [][]byte {
	spread := []byte{251} // two sets, far cells 2^56 apart: 28 events in Union
	for i := byte(0); i < 14; i++ {
		spread = append(spread, i%2, 3*i%24+24*(i%11), 5*i%24+24*(10-i%11), 2+i%8, 1+i%9)
	}
	many := []byte{0}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 360; i++ {
		many = append(many, 0, byte(rng.Intn(24)), byte(rng.Intn(24)), byte(1+rng.Intn(9)), byte(1+rng.Intn(9)))
	}
	return [][]byte{spread, many}
}

// FuzzRegionOps holds every region operation and area query against
// the slab oracle on fuzzed rect sets: the region ops rect for rect and
// in normal form, the area queries against AreaOf of the region the
// oracle builds.
func FuzzRegionOps(f *testing.F) {
	f.Add([]byte{0, 0, 8, 8, 5, 5})                                              // one rect
	f.Add([]byte{1, 0, 0, 0, 6, 6, 1, 3, 3, 6, 6})                               // two overlapping operands
	f.Add([]byte{0, 0, 2, 2, 4, 4, 0, 2, 2, 4, 4, 0, 3, 3, 1, 1})                // duplicate and nested
	f.Add([]byte{2, 0, 0, 0, 4, 4, 1, 4, 0, 4, 4, 2, 0, 4, 4, 4, 0, 5, 5, 0, 3}) // touching, zero width
	f.Add([]byte{4, 0, 1, 1, 9, 9, 1, 2, 2, 9, 9, 2, 3, 3, 9, 9, 3, 0, 0, 3, 3, 4, 20, 20, 3, 3})
	for _, seed := range regionSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sets := regionSets(data)
		a := sets[0]
		var b []Rect
		if len(sets) > 1 {
			b = sets[1]
		}
		var all, chained []Rect
		normal := make([][]Rect, len(sets))
		for i, rs := range sets {
			all = append(all, rs...)
			chained = slabUnion(chained, rs)
			normal[i] = slabNormalize(rs)
		}
		for _, c := range []struct {
			name      string
			got, want []Rect
		}{
			{"Union", Union(a, b), slabUnion(a, b)},
			{"Intersect", Intersect(a, b), slabIntersect(a, b)},
			{"Subtract", Subtract(a, b), slabSubtract(a, b)},
			{"Normalize", Normalize(a), slabNormalize(a)},
			{"UnionAll", UnionAll(sets...), chained},
		} {
			if !sameRects(c.got, c.want) || !IsNormal(c.got) {
				t.Fatalf("%s(%v) = %v, slab oracle %v", c.name, sets, c.got, c.want)
			}
		}
		clip := Rect{-4, -4, 10, 10}
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"IntersectArea", IntersectArea(a, b), AreaOf(slabIntersect(a, b))},
			{"UnionArea", UnionArea(a, b), AreaOf(slabUnion(a, b))},
			{"AreaOf", AreaOf(all), AreaOf(slabNormalize(all))},
			{"ClipArea", ClipArea(all, clip), AreaOf(slabIntersect(all, []Rect{clip}))},
			{"DoubleCoverArea", DoubleCoverArea(sets...), pairwiseArea(normal)},
		} {
			if c.got != c.want {
				t.Fatalf("%s(%v) = %d, slab oracle %d", c.name, sets, c.got, c.want)
			}
		}
	})
}

// TestRegionOpsIgnoreInputOrder holds the region ops to two metamorphic
// relations no oracle is needed for. A region does not depend on the
// order its rects are listed in, so every op on shuffled operands must
// equal the op on the operands as given: the sweep sorts its y-events
// and BoundarySides its sides by packed integer keys, and a key that
// leaked the input order into the output would show here. And a region
// translated is the region's translation, so every op on operands moved
// by ±2^40 must equal the op's result moved: the keys pack coordinates
// relative to the operands' least, and one packed absolute would shift
// the order or overflow. The operands range from a few rects to past
// keysort's radix cutoff (320 rects are 640 y-events).
func TestRegionOpsIgnoreInputOrder(t *testing.T) {
	seed := rand.Int63()
	t.Logf("seed=%d", seed)
	rng := rand.New(rand.NewSource(seed))
	shuffled := func(rs []Rect) []Rect {
		out := slices.Clone(rs)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	moved := func(rs []Rect, dx, dy int64) []Rect {
		out := make([]Rect, len(rs))
		for i, r := range rs {
			out[i] = r.Translate(Point{dx, dy})
		}
		return out
	}
	movedEdges := func(es []Edge, dx, dy int64) []Edge {
		out := make([]Edge, len(es))
		for i, e := range es {
			out[i] = Edge{Point{e.P0.X + dx, e.P0.Y + dy}, Point{e.P1.X + dx, e.P1.Y + dy}, e.Interior}
		}
		return out
	}
	// results runs every op on the operands a, b and c (in UnionAll and
	// DoubleCoverArea) and the clip rect, returning the regions, the
	// boundary of a's normal form, side by side, and the areas.
	results := func(a, b, c []Rect, clip Rect) (regions [][]Rect, edges []Edge, areas []int64) {
		regions = [][]Rect{Normalize(a), Union(a, b), Intersect(a, b), Subtract(a, b), UnionAll(a, b, c)}
		areas = []int64{AreaOf(a), UnionArea(a, b), IntersectArea(a, b), DoubleCoverArea(a, b, c), ClipArea(a, clip)}
		for side, segs := range BoundarySides(regions[0]) {
			for _, g := range segs {
				edges = append(edges, g.edge(Side(side)))
			}
		}
		return regions, edges, areas
	}
	// The block-scale operands are sparse enough that a's normal form
	// holds over 640 rects, so BoundarySides radix-sorts its sides.
	cases := []struct {
		n     int
		span  int64
		block bool
	}{{3, 20, false}, {12, 60, false}, {40, 200, false}, {330, 400, false}, {800, 50000, true}}
	for _, c := range cases {
		draw := func(n int) []Rect {
			if c.block {
				return blockRects(rng.Int63(), n)
			}
			return randRects(rng, n, c.span)
		}
		for rep := 0; rep < 4; rep++ {
			a, b, u := draw(c.n), draw(c.n), draw(c.n/2)
			clip := Rect{-c.span / 2, -c.span / 2, c.span / 3, c.span / 3}
			regions, edges, areas := results(a, b, u, clip)

			sr, se, sa := results(shuffled(a), shuffled(b), shuffled(u), clip)
			for i := range regions {
				if !sameRects(sr[i], regions[i]) {
					t.Fatalf("n=%d op %d: shuffled operands give another region", c.n, i)
				}
			}
			if !slices.Equal(se, edges) || !slices.Equal(sa, areas) {
				t.Fatalf("n=%d: shuffled operands give other edges or areas", c.n)
			}

			for _, d := range [][2]int64{{1 << 40, -1 << 40}, {-1 << 40, 1 << 40}} {
				dx, dy := d[0], d[1]
				mr, me, ma := results(moved(a, dx, dy), moved(b, dx, dy), moved(u, dx, dy), clip.Translate(Point{dx, dy}))
				for i := range regions {
					if !sameRects(mr[i], moved(regions[i], dx, dy)) {
						t.Fatalf("n=%d op %d: moved by (%d, %d), the region is not the moved region", c.n, i, dx, dy)
					}
				}
				if !slices.Equal(me, movedEdges(edges, dx, dy)) || !slices.Equal(ma, areas) {
					t.Fatalf("n=%d: moved by (%d, %d), the edges or areas are not the moved ones", c.n, dx, dy)
				}
			}
		}
	}
}
