package geom

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/obs"
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
// intersects or touches q, by ascending id. An inside-out rect (X1 < X0
// or Y1 < Y0) is nowhere, as an item and as a query.
func bruteQuery(items []Rect, q Rect) []int {
	var ids []int
	for i, r := range items {
		if binnable(r) && binnable(q) && q.X0 <= r.X1 && r.X0 <= q.X1 && q.Y0 <= r.Y1 && r.Y0 <= q.Y1 {
			ids = append(ids, i)
		}
	}
	return ids
}

// visitOrder is the ids QueryFunc reports for q, in the order it
// reports them, each checked to arrive with its own rect.
func visitOrder(t testing.TB, ix *Index, items []Rect, q Rect) []int {
	t.Helper()
	var visited []int
	ix.QueryFunc(q, func(id int, r Rect) bool {
		if r != items[id] {
			t.Fatalf("QueryFunc passed %v for item %d = %v", r, id, items[id])
		}
		visited = append(visited, id)
		return true
	})
	return visited
}

// checkIndex asks ix and the brute-force scan the same question, and
// checks that QueryFunc reports the same items exactly once each.
func checkIndex(t testing.TB, ix *Index, items []Rect, q Rect) {
	t.Helper()
	want := bruteQuery(items, q)
	if got := ix.Query(q); !slices.Equal(got, want) {
		t.Fatalf("Query(%v) over %d items = %v, want %v", q, len(items), got, want)
	}
	visited := visitOrder(t, ix, items, q)
	sort.Ints(visited)
	if !slices.Equal(visited, want) {
		t.Fatalf("QueryFunc(%v) visited %v, want each of %v once", q, visited, want)
	}
}

// checkLayouts is checkIndex on the two layouts of one item list: the
// frozen index IndexOf builds and the one grown by inserting the items
// one by one. Visit order is a function of the grid's cell alone (bins
// are walked row-major by absolute bin coordinate), so where the two
// ended on the same cell they must also agree on the order; they differ
// only when growing doubled the cell under an item budget that bulk
// building, knowing the final count, did not hit.
func checkLayouts(t testing.TB, frozen, grown *Index, items []Rect, q Rect) {
	t.Helper()
	checkIndex(t, frozen, items, q)
	checkIndex(t, grown, items, q)
	if frozen.cell != grown.cell {
		return
	}
	if f, g := visitOrder(t, frozen, items, q), visitOrder(t, grown, items, q); !slices.Equal(f, g) {
		t.Fatalf("QueryFunc(%v) at cell %d: frozen visits %v, grown %v", q, frozen.cell, f, g)
	}
}

// bothLayouts builds items into a frozen and a grown index.
func bothLayouts(t testing.TB, cell int64, items []Rect) (frozen, grown *Index) {
	t.Helper()
	frozen, grown = IndexOf(cell, items), NewIndex(cell)
	if frozen.bins != nil || (frozen.w > 0) != (frozen.start != nil) {
		t.Fatalf("IndexOf over %d items is not in the frozen layout", len(items))
	}
	for i, r := range items {
		if id := grown.Insert(r); id != i {
			t.Fatalf("Insert returned id %d, want %d", id, i)
		}
	}
	if grown.start != nil || len(frozen.items) != len(items) || len(grown.items) != len(items) {
		t.Fatalf("items: frozen %d, grown %d, want %d", len(frozen.items), len(grown.items), len(items))
	}
	if bins := frozen.w * frozen.h; bins > binLimit(len(items)) {
		t.Fatalf("%d bins laid for %d items", bins, len(items))
	}
	return frozen, grown
}

// indexRect draws rects that are usually small, sometimes many cells
// across, sometimes zero-width or zero-height, sometimes inside out
// (X1 < X0: an id nothing can find), around an origin that may be far
// on either side of zero.
func indexRect(rnd *rand.Rand, origin, span int64) Rect {
	x, y := origin+rnd.Int63n(2*span)-span, origin+rnd.Int63n(2*span)-span
	w, h := 1+rnd.Int63n(span/8), 1+rnd.Int63n(span/8)
	switch rnd.Intn(12) {
	case 0:
		w = 0
	case 1:
		h = 0
	case 2:
		w, h = 0, 0
	case 3:
		w = span
	case 4:
		w = -w
	}
	return Rect{x, y, x + w, y + h}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	for round := 0; round < 120; round++ {
		origin := []int64{0, -5000, 1 << 40, -(1 << 40)}[rnd.Intn(4)]
		span := int64(50 + rnd.Intn(2000))
		cell := 1 + rnd.Int63n(span)
		// The empty set and a single item are rounds of their own.
		items := make([]Rect, []int{0, 1, 2 + rnd.Intn(300)}[min(round%8, 2)])
		for i := range items {
			items[i] = indexRect(rnd, origin, span)
			if rnd.Intn(100) == 0 {
				// Far from everything else: the grid trades cell size for it.
				items[i] = items[i].Translate(Pt(rnd.Int63n(1<<30)<<12, -rnd.Int63n(1<<30)<<12))
			}
		}
		frozen, grown := bothLayouts(t, cell, items)
		for i := 0; i < 12; i++ {
			checkLayouts(t, frozen, grown, items, indexRect(rnd, origin, span))
		}
		// Entirely outside what was inserted, and covering all of it.
		checkLayouts(t, frozen, grown, items, R(origin+10*span, origin+10*span, origin+11*span, origin+11*span))
		checkLayouts(t, frozen, grown, items, R(origin-11*span, origin-11*span, origin-10*span, origin+11*span))
		checkLayouts(t, frozen, grown, items, R(-(1<<43), -(1<<43), 1<<43, 1<<43))
		// A degenerate query is a point or a segment, not nothing.
		if len(items) > 0 {
			r := items[rnd.Intn(len(items))]
			checkLayouts(t, frozen, grown, items, Rect{r.X0, r.Y0, r.X0, r.Y0})
			checkLayouts(t, frozen, grown, items, Rect{r.X1, r.Y0, r.X1, r.Y1})
		}
	}
}

// The router and the via doubler query between inserts.
func TestIndexQueriesBetweenInserts(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	for round := 0; round < 100; round++ {
		origin := []int64{0, -5000, 1 << 40, -(1 << 40)}[rnd.Intn(4)]
		span := int64(50 + rnd.Intn(2000))
		ix := NewIndex(1 + rnd.Int63n(span))
		var items []Rect
		for step := 0; step < 60; step++ {
			if rnd.Intn(3) == 0 {
				checkIndex(t, ix, items, indexRect(rnd, origin, span))
				continue
			}
			items = append(items, indexRect(rnd, origin, span))
			ix.Insert(items[len(items)-1])
		}
		checkIndex(t, ix, items, R(origin-20*span, origin-20*span, origin+20*span, origin+20*span))
	}
}

// Insert on a frozen index moves it to the grown layout, bin contents
// kept, and goes on from there; it leaves the slice the index was
// built over alone.
func TestIndexInsertAfterIndexOf(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for round := 0; round < 100; round++ {
		span := int64(50 + rnd.Intn(2000))
		backing := make([]Rect, rnd.Intn(40), 64)
		for i := range backing {
			backing[i] = indexRect(rnd, 0, span)
		}
		sentinel := R(-1, -2, -3, -4)
		backing[:cap(backing)][len(backing)] = sentinel
		ix := IndexOf(1+rnd.Int63n(span), backing)
		items := slices.Clone(backing)
		for i := 0; i < 20; i++ {
			r := indexRect(rnd, 0, 3*span)
			if id := ix.Insert(r); id != len(items) {
				t.Fatalf("Insert returned id %d, want %d", id, len(items))
			}
			items = append(items, r)
			checkIndex(t, ix, items, indexRect(rnd, 0, 3*span))
		}
		if ix.start != nil || ix.ids != nil {
			t.Fatal("index still frozen after Insert")
		}
		checkIndex(t, ix, items, R(-20*span, -20*span, 20*span, 20*span))
		if got := backing[:cap(backing)][len(backing)]; got != sentinel {
			t.Fatalf("Insert wrote %v into the caller's array", got)
		}
	}
}

// IndexOf counts the bins it lays and those that hold anything.
func TestIndexOfCountsBins(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	counts := func() (laid, occupied int64) {
		c := obs.Default().Snapshot().Counters
		return c["geom.index.bins.laid"], c["geom.index.bins.occupied"]
	}
	laid0, occupied0 := counts()
	// A 10 x 10 grid: one rect across the bottom row, one in the far corner.
	IndexOf(100, []Rect{R(0, 0, 999, 50), R(950, 950, 999, 999), {5, 5, 1, 1}})
	IndexOf(100, nil)
	laid, occupied := counts()
	if laid-laid0 != 100 || occupied-occupied0 != 11 {
		t.Fatalf("laid %d bins, %d occupied; want 100 and 11", laid-laid0, occupied-occupied0)
	}
}

// A few rects scattered over a huge plane under a tiny cell size must
// not ask for a bin array the size of the plane.
func TestIndexFarApartItems(t *testing.T) {
	items := []Rect{R(0, 0, 3, 3), R(1<<40, 1<<40, 1<<40+5, 1<<40+5), R(-(1 << 41), 7, -(1<<41)+2, 9),
		R(1<<39, -(1 << 39), 1<<39+1, -(1<<39)+1), R(2, 2, 4, 4)}
	frozen, grown := bothLayouts(t, 1, items)
	for _, r := range items {
		checkLayouts(t, frozen, grown, items, r.Bloat(1))
	}
	checkLayouts(t, frozen, grown, items, R(-(1<<42), -(1<<42), 1<<42, 1<<42))
	if n := len(grown.bins); n > 4*minBins {
		t.Fatalf("%d bins for %d items", n, len(items))
	}
}

// FuzzIndexQuery decodes a cell size, items and queries from the
// fuzzer's bytes — coordinates on a small grid, any of them thrown out
// to ±2^40 nm — and holds the frozen layout, the grown one and the
// brute-force scan to the same answers, under the bin budget.
func FuzzIndexQuery(f *testing.F) {
	f.Add([]byte{8, 0, 0, 0, 10, 5, 0, 3, 3, 4, 4})
	f.Add([]byte{1, 1, 0, 0, 3, 3, 2, 9, 9, 1, 1, 0, 40, 40, 2, 2})
	f.Add([]byte{200, 4, 5, 5, 250, 0, 8, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cell := int64(data[0]) // 0 is clamped to 1
		var items, queries []Rect
		for data = data[1:]; len(data) >= 5 && len(items) < 64; data = data[5:] {
			x, y := int64(data[1]%64)-16, int64(data[2]%64)-16
			// The width byte reaches past 127 into negative: unbinnable.
			r := Rect{x, y, x + int64(int8(data[3]))/4, y + int64(data[4]%24)}
			switch data[0] % 8 {
			case 1:
				r = r.Translate(Pt(1<<40, -(1 << 40)))
			case 2:
				r = r.Translate(Pt(-(1 << 40), 1<<40))
			case 3:
				r.X1 = 1 << 40
			}
			if data[0]&8 != 0 {
				queries = append(queries, r)
			} else {
				items = append(items, r)
			}
		}
		frozen, grown := bothLayouts(t, cell, items)
		for _, q := range queries {
			checkLayouts(t, frozen, grown, items, q)
		}
		checkLayouts(t, frozen, grown, items, R(-(1<<41), -(1<<41), 1<<41, 1<<41))
	})
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
