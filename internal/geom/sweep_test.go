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
		sweep func(a, b []Rect) []Rect
		slab  func(a, b []Rect) []Rect
	}{
		{"Union", Union, slabUnion},
		{"Intersect", Intersect, slabIntersect},
		{"Subtract", Subtract, slabSubtract},
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
			var kind opKind
			switch op.name {
			case "Union":
				kind = opUnion
			case "Intersect":
				kind = opIntersect
			case "Subtract":
				kind = opSubtract
			}
			if got := sweepArea(a, b, kind); got != sum {
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

		// Segment-tree union area vs the materialized slab union.
		if got, want := UnionArea(a, b), AreaOf(slabUnion(a, b)); got != want {
			t.Fatalf("seed=%d UnionArea=%d want=%d", seed, got, want)
		}
		mixed := append(append([]Rect{}, a...), b...)
		if got, want := AreaOf(mixed), AreaOf(slabNormalize(mixed)); got != want {
			t.Fatalf("seed=%d AreaOf(mixed)=%d want=%d", seed, got, want)
		}

		// Multiplicity sweep vs union of materialized pairwise slab
		// intersections over k disjoint operand sets.
		kk := 2 + rng.Intn(3)
		csets := make([][]Rect, kk)
		for i := range csets {
			csets[i] = slabNormalize(randRects(rng, rng.Intn(12), span))
		}
		var pairRegions []Rect
		for i := 0; i < kk; i++ {
			for j := i + 1; j < kk; j++ {
				pairRegions = append(pairRegions, slabIntersect(csets[i], csets[j])...)
			}
		}
		if got, want := DoubleCoverArea(csets...), AreaOf(slabNormalize(pairRegions)); got != want {
			t.Fatalf("seed=%d DoubleCoverArea=%d want=%d", seed, got, want)
		}

		// ClipArea vs materialized intersection with the clip rect.
		clip := Rect{-span / 2, -span / 2, span / 2, span / 2}
		if got, want := ClipArea(a, clip), AreaOf(slabIntersect(a, []Rect{clip})); got != want {
			t.Fatalf("seed=%d ClipArea=%d want=%d (a=%v)", seed, got, want, a)
		}
	}
}

// TestSweepConcurrent drives pooled sweepers from many goroutines so
// the -race gate in make tier1 exercises the sync.Pool scratch reuse.
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
				u := Union(a, b)
				if AreaOf(u) != UnionArea(a, b) {
					done <- fmt.Errorf("goroutine %d iter %d: area mismatch", g, i)
					return
				}
				_ = Subtract(a, b)
				_ = Intersect(a, b)
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
