package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Pixel-oracle tests: rasterize tiny rect sets onto a unit grid and
// compare every boolean operation against per-pixel set algebra. This
// is the strongest correctness check on the scanline engine because
// the oracle shares no code with it.

const oracleN = 40 // grid is [0, oracleN)^2

func rasterOracle(rs []Rect) [oracleN][oracleN]bool {
	var g [oracleN][oracleN]bool
	for _, r := range rs {
		for y := max(0, r.Y0); y < min(oracleN, r.Y1); y++ {
			for x := max(0, r.X0); x < min(oracleN, r.X1); x++ {
				g[y][x] = true
			}
		}
	}
	return g
}

func oracleRectSet(rnd *rand.Rand, n int) []Rect {
	rs := make([]Rect, n)
	for i := range rs {
		x, y := rnd.Int63n(oracleN-2), rnd.Int63n(oracleN-2)
		rs[i] = R(x, y, x+1+rnd.Int63n(oracleN-1-x), y+1+rnd.Int63n(oracleN-1-y))
	}
	return rs
}

func gridsEqual(a, b [oracleN][oracleN]bool) (bool, int, int) {
	for y := 0; y < oracleN; y++ {
		for x := 0; x < oracleN; x++ {
			if a[y][x] != b[y][x] {
				return false, x, y
			}
		}
	}
	return true, 0, 0
}

func TestQuickBooleanOpsMatchPixelOracle(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := oracleRectSet(rnd, 1+rnd.Intn(5))
		b := oracleRectSet(rnd, 1+rnd.Intn(5))
		ga, gb := rasterOracle(a), rasterOracle(b)

		ops := []struct {
			name string
			got  []Rect
			want func(x, y int) bool
		}{
			{"union", Union(a, b), func(x, y int) bool { return ga[y][x] || gb[y][x] }},
			{"intersect", Intersect(a, b), func(x, y int) bool { return ga[y][x] && gb[y][x] }},
			{"subtract", Subtract(a, b), func(x, y int) bool { return ga[y][x] && !gb[y][x] }},
		}
		for _, op := range ops {
			var want [oracleN][oracleN]bool
			for y := 0; y < oracleN; y++ {
				for x := 0; x < oracleN; x++ {
					want[y][x] = op.want(x, y)
				}
			}
			got := rasterOracle(op.got)
			if ok, x, y := gridsEqual(got, want); !ok {
				t.Logf("seed %d: %s differs at (%d,%d): a=%v b=%v", seed, op.name, x, y, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickMorphologyMatchesPixelOracle(t *testing.T) {
	// Dilation oracle: a pixel is set if any input pixel lies within
	// Chebyshev distance d of it (square structuring element). The
	// rect-set Dilate bloats by d on each side, so pixel (x,y) of the
	// dilation covers input pixels (x',y') with |x-x'|<=d, |y-y'|<=d.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := oracleRectSet(rnd, 1+rnd.Intn(4))
		d := 1 + rnd.Int63n(3)
		ga := rasterOracle(a)
		got := rasterOracle(Dilate(a, d))
		for y := int64(0); y < oracleN; y++ {
			for x := int64(0); x < oracleN; x++ {
				want := false
				for yy := max(0, y-d); yy <= min(oracleN-1, y+d) && !want; yy++ {
					for xx := max(0, x-d); xx <= min(oracleN-1, x+d); xx++ {
						if ga[yy][xx] {
							want = true
							break
						}
					}
				}
				// Edge effect: the dilation may extend beyond the
				// oracle grid; only compare in-grid pixels, and only
				// where the source neighborhood is fully in-grid.
				if y-d < 0 || y+d >= oracleN || x-d < 0 || x+d >= oracleN {
					continue
				}
				if got[y][x] != want {
					t.Logf("seed %d: dilate(%d) differs at (%d,%d)", seed, d, x, y)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickErodeMatchesPixelOracle(t *testing.T) {
	// Erosion oracle: pixel set iff the full (2d+1)-square around it is
	// covered by the input.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := oracleRectSet(rnd, 1+rnd.Intn(4))
		d := 1 + rnd.Int63n(2)
		ga := rasterOracle(a)
		got := rasterOracle(Erode(a, d))
		for y := d; y < oracleN-d; y++ {
			for x := d; x < oracleN-d; x++ {
				want := true
				for yy := y - d; yy <= y+d && want; yy++ {
					for xx := x - d; xx <= x+d; xx++ {
						if !ga[yy][xx] {
							want = false
							break
						}
					}
				}
				if got[y][x] != want {
					t.Logf("seed %d: erode(%d) differs at (%d,%d)", seed, d, x, y)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// componentsOracle is what Components must return: a union-find over
// every pair of rects that intersect or touch, corners included, found by
// an O(n²) scan that knows nothing of bands, each component listing its
// rects in position order and the components numbered by first rect.
func componentsOracle(rs []Rect) [][]Rect {
	parent := make([]int, len(rs))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for i, a := range rs {
		for j := i + 1; j < len(rs); j++ {
			b := rs[j]
			if a.X0 <= b.X1 && b.X0 <= a.X1 && a.Y0 <= b.Y1 && b.Y0 <= a.Y1 {
				if ra, rb := find(i), find(j); ra != rb {
					parent[max(ra, rb)] = min(ra, rb)
				}
			}
		}
	}
	var out [][]Rect
	comp := make(map[int]int) // by root
	for i, r := range rs {
		root := find(i)
		c, ok := comp[root]
		if !ok {
			c = len(out)
			comp[root] = c
			out = append(out, nil)
		}
		out[c] = append(out[c], r)
	}
	return out
}
