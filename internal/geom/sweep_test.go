package geom

import (
	"fmt"
	"math/rand"
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
// iterator state load fails to reset shows up as a wrong answer.
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
// up to 64 rects.
func regionSets(data []byte) [][]Rect {
	if len(data) == 0 {
		return [][]Rect{nil}
	}
	sets := make([][]Rect, 1+int(data[0])%5)
	data = data[1:]
	for n := 0; len(data) >= 5 && n < 64; n++ {
		i := int(data[0]) % len(sets)
		x, y := int64(data[1]%24)-8, int64(data[2]%24)-8
		sets[i] = append(sets[i], Rect{x, y, x + int64(data[3]%10), y + int64(data[4]%10)})
		data = data[5:]
	}
	return sets
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
