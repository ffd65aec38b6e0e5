package geom

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexBasics(t *testing.T) {
	ix := NewIndex(100)
	a := ix.Insert(R(0, 0, 50, 50))
	b := ix.Insert(R(200, 200, 250, 250))
	c := ix.Insert(R(40, 40, 60, 60))
	if len(ix.items) != 3 {
		t.Fatalf("items = %d", len(ix.items))
	}
	got := ix.Query(R(45, 45, 55, 55))
	want := []int{a, c}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Query = %v, want %v", got, want)
	}
	if got := ix.Query(R(500, 500, 600, 600)); len(got) != 0 {
		t.Fatalf("empty-region query returned %v", got)
	}
	if r := ix.items[b]; r != R(200, 200, 250, 250) {
		t.Fatalf("items[b] = %v", r)
	}
}

func TestIndexTouchCounts(t *testing.T) {
	ix := NewIndex(64)
	id := ix.Insert(R(0, 0, 10, 10))
	// Query that only touches the item's edge must still return it.
	if got := ix.Query(R(10, 0, 20, 10)); len(got) != 1 || got[0] != id {
		t.Fatalf("edge-touching query = %v", got)
	}
}

func TestIndexNegativeCoords(t *testing.T) {
	ix := NewIndex(50)
	id := ix.Insert(R(-120, -80, -70, -30))
	if got := ix.Query(R(-100, -60, -90, -50)); len(got) != 1 || got[0] != id {
		t.Fatalf("negative-coordinate query = %v", got)
	}
}

func TestIndexQueryFuncEarlyStop(t *testing.T) {
	ix := NewIndex(10)
	for i := 0; i < 20; i++ {
		ix.Insert(R(int64(i), 0, int64(i)+1, 1))
	}
	count := 0
	ix.QueryFunc(R(0, 0, 30, 1), func(id int, r Rect) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("QueryFunc visited %d items after early stop, want 5", count)
	}
}

func TestIndexDefaultsBadCellSize(t *testing.T) {
	ix := NewIndex(0)
	ix.Insert(R(0, 0, 3, 3))
	if got := ix.Query(R(1, 1, 2, 2)); len(got) != 1 {
		t.Fatalf("index with clamped cell size broken: %v", got)
	}
}

func TestQuickIndexMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 1 + rnd.Intn(40)
		rects := make([]Rect, n)
		ix := NewIndex(1 + rnd.Int63n(80))
		for i := range rects {
			rects[i] = randRect(rnd)
			ix.Insert(rects[i])
		}
		q := randRect(rnd)
		var want []int
		for i, r := range rects {
			if q.X0 <= r.X1 && r.X0 <= q.X1 && q.Y0 <= r.Y1 && r.Y0 <= q.Y1 {
				want = append(want, i)
			}
		}
		got := ix.Query(q)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// QueryFunc must visit the same id set.
		var fun []int
		ix.QueryFunc(q, func(id int, r Rect) bool {
			fun = append(fun, id)
			return true
		})
		sort.Ints(fun)
		if len(fun) != len(want) {
			return false
		}
		for i := range fun {
			if fun[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// bruteQuery is the definition of Query: every inserted rect that
// intersects or touches q, by ascending id.
func bruteQuery(items []Rect, q Rect) []int {
	var ids []int
	for i, r := range items {
		if q.X0 <= r.X1 && r.X0 <= q.X1 && q.Y0 <= r.Y1 && r.Y0 <= q.Y1 {
			ids = append(ids, i)
		}
	}
	return ids
}

// checkIndex asks ix and the brute-force scan the same question, and
// checks that QueryFunc reports the same items exactly once each.
func checkIndex(t *testing.T, ix *Index, items []Rect, q Rect) {
	t.Helper()
	want := bruteQuery(items, q)
	if got := ix.Query(q); !slices.Equal(got, want) {
		t.Fatalf("Query(%v) over %d items = %v, want %v", q, len(items), got, want)
	}
	var visited []int
	ix.QueryFunc(q, func(id int, r Rect) bool {
		if r != items[id] {
			t.Fatalf("QueryFunc passed %v for item %d = %v", r, id, items[id])
		}
		visited = append(visited, id)
		return true
	})
	sort.Ints(visited)
	if !slices.Equal(visited, want) {
		t.Fatalf("QueryFunc(%v) visited %v, want each of %v once", q, visited, want)
	}
}

// indexRect draws rects that are usually small, sometimes many cells
// across, sometimes zero-width or zero-height, around an origin that
// may be far on either side of zero.
func indexRect(rnd *rand.Rand, origin, span int64) Rect {
	x, y := origin+rnd.Int63n(2*span)-span, origin+rnd.Int63n(2*span)-span
	w, h := 1+rnd.Int63n(span/8), 1+rnd.Int63n(span/8)
	switch rnd.Intn(10) {
	case 0:
		w = 0
	case 1:
		h = 0
	case 2:
		w, h = 0, 0
	case 3:
		w = span
	}
	return Rect{x, y, x + w, y + h}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	for round := 0; round < 200; round++ {
		origin := []int64{0, -5000, 1 << 40, -(1 << 40)}[rnd.Intn(4)]
		span := int64(50 + rnd.Intn(2000))
		cell := 1 + rnd.Int63n(span)
		ix := NewIndex(cell)
		var items []Rect
		// Bulk load, single inserts and queries interleaved in random
		// order: the router and the via doubler query between inserts.
		for step := 0; step < 30; step++ {
			switch rnd.Intn(3) {
			case 0:
				batch := make([]Rect, rnd.Intn(20))
				for i := range batch {
					batch[i] = indexRect(rnd, origin, span)
				}
				ix.InsertAll(batch)
				items = append(items, batch...)
			case 1:
				r := indexRect(rnd, origin, span)
				if id := ix.Insert(r); id != len(items) {
					t.Fatalf("Insert returned id %d, want %d", id, len(items))
				}
				items = append(items, r)
			default:
				checkIndex(t, ix, items, indexRect(rnd, origin, span))
			}
		}
		if len(ix.items) != len(items) {
			t.Fatalf("items = %d, want %d", len(ix.items), len(items))
		}
		checkIndex(t, ix, items, indexRect(rnd, origin, span))
		// Entirely outside what was inserted, and covering all of it.
		checkIndex(t, ix, items, R(origin+10*span, origin+10*span, origin+11*span, origin+11*span))
		checkIndex(t, ix, items, R(origin-11*span, origin-11*span, origin-10*span, origin+11*span))
		checkIndex(t, ix, items, R(origin-20*span, origin-20*span, origin+20*span, origin+20*span))
		// A degenerate query is a point or a segment, not nothing.
		if len(items) > 0 {
			r := items[rnd.Intn(len(items))]
			checkIndex(t, ix, items, Rect{r.X0, r.Y0, r.X0, r.Y0})
			checkIndex(t, ix, items, Rect{r.X1, r.Y0, r.X1, r.Y1})
		}
	}
}

// A few rects scattered over a huge plane under a tiny cell size must
// not ask for a bin array the size of the plane.
func TestIndexFarApartItems(t *testing.T) {
	ix := NewIndex(1)
	items := []Rect{R(0, 0, 3, 3), R(1<<40, 1<<40, 1<<40+5, 1<<40+5), R(-(1 << 41), 7, -(1<<41)+2, 9)}
	for _, r := range items {
		ix.Insert(r)
	}
	more := []Rect{R(1<<39, -(1 << 39), 1<<39+1, -(1<<39)+1), R(2, 2, 4, 4)}
	ix.InsertAll(more)
	items = append(items, more...)
	for _, r := range items {
		checkIndex(t, ix, items, r.Bloat(1))
	}
	checkIndex(t, ix, items, R(-(1<<42), -(1<<42), 1<<42, 1<<42))
	if n := len(ix.bins); n > 4*minBins {
		t.Fatalf("%d bins for %d items", n, len(items))
	}
}

// QueryFunc visits bins row-major and ids in ascending order within a
// bin, an item at the first of its bins the query reaches. Callers that
// stop early (the router, the via doubler) see a prefix of that order,
// so it is pinned here.
func TestIndexQueryFuncOrder(t *testing.T) {
	ix := NewIndex(10)
	a := ix.Insert(R(12, 12, 14, 14)) // bin (1,1)
	b := ix.Insert(R(2, 2, 25, 4))    // bins (0..2, 0)
	c := ix.Insert(R(2, 12, 4, 14))   // bin (0,1)
	d := ix.Insert(R(1, 1, 3, 3))     // bin (0,0)
	var got []int
	ix.QueryFunc(R(0, 0, 30, 30), func(id int, _ Rect) bool {
		got = append(got, id)
		return true
	})
	if want := []int{b, d, c, a}; !slices.Equal(got, want) {
		t.Fatalf("visit order %v, want %v", got, want)
	}
	// From the second column on, b is first met in bin (1,0).
	got = got[:0]
	ix.QueryFunc(R(11, 0, 30, 30), func(id int, _ Rect) bool {
		got = append(got, id)
		return true
	})
	if want := []int{b, a}; !slices.Equal(got, want) {
		t.Fatalf("visit order %v, want %v", got, want)
	}
}
