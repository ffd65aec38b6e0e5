package pattern

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// serialize produces the byte form used for hashing: radius followed by
// the sorted rect coordinates.
func (p Pattern) serialize(rs []geom.Rect) []byte {
	buf := make([]byte, 0, 8+32*len(rs))
	put := func(v int64) {
		for s := 56; s >= 0; s -= 8 {
			buf = append(buf, byte(v>>uint(s)))
		}
	}
	put(p.Radius)
	for _, r := range rs {
		put(r.X0)
		put(r.Y0)
		put(r.X1)
		put(r.Y1)
	}
	return buf
}

// canonHashOracle is CanonHash as it was before it hashed two normal
// forms: each of the eight orientations transformed, normalized and
// serialized on its own.
func (p Pattern) canonHashOracle() uint64 {
	best := ^uint64(0)
	for o := geom.R0; o <= geom.MY90; o++ {
		h := fnv.New64a()
		h.Write(p.serialize(p.orientedRects(o)))
		if s := h.Sum64(); s < best {
			best = s
		}
	}
	return best
}

// fuzzRadii are the radii FuzzCanonHash draws from: the degenerate 0
// and 1, a small odd one, the library radii, one of 2^40, and a
// negative one, whose window [2R, 0] the orientations re-anchor too.
var fuzzRadii = []int64{0, 1, 7, 100, 150, 200, 1 << 40, -7}

// fuzzPattern decodes a pattern: the radius from pick, then four signed
// bytes a rect (x, y, width, height) in units of a 64th of the radius,
// so that rects overlap, reach past the window and, at a negative width
// or height, are inside out. far moves every rect by ±2^40.
func fuzzPattern(data []byte, pick uint8, far bool) Pattern {
	radius := fuzzRadii[int(pick)%len(fuzzRadii)]
	unit := max(1, radius/64)
	var off int64
	if far {
		off = 1 << 40
		if pick&0x80 != 0 {
			off = -off
		}
	}
	var rs []geom.Rect
	for ; len(data) >= 4 && len(rs) < 64; data = data[4:] {
		x, y := off+unit*int64(int8(data[0])), off+unit*int64(int8(data[1]))
		rs = append(rs, geom.Rect{X0: x, Y0: y, X1: x + unit*int64(int8(data[2])), Y1: y + unit*int64(int8(data[3]))})
	}
	return Pattern{Radius: radius, Rects: rs}
}

// FuzzCanonHash holds CanonHash to the eight-normalization oracle on
// fuzzed patterns: overlapping and non-normal rects, rects outside the
// window and inside out, the empty pattern and one rect, radius 0 and
// 1, and coordinates near ±2^40.
func FuzzCanonHash(f *testing.F) {
	f.Add([]byte{}, uint8(3), false)
	f.Add([]byte{10, 10, 20, 30}, uint8(0), false)
	f.Add([]byte{10, 10, 20, 30}, uint8(1), true)
	f.Add([]byte{0, 0, 100, 20, 0, 20, 20, 100, 10, 10, 10, 10}, uint8(3), false)       // an L and a rect inside it
	f.Add([]byte{0, 0, 40, 40, 40, 0, 40, 40, 0, 40, 80, 40}, uint8(4), false)          // a square split three ways
	f.Add([]byte{200, 200, 100, 100, 120, 250, 30, 20, 5, 5, 250, 250}, uint8(5), true) // outside the window, inside out
	f.Add([]byte{0, 0, 10, 10, 20, 0, 10, 10, 0, 20, 10, 10, 20, 20, 10, 10}, uint8(0x86), true)
	f.Fuzz(func(t *testing.T, data []byte, pick uint8, far bool) {
		p := fuzzPattern(data, pick, far)
		if got, want := p.CanonHash(), p.canonHashOracle(); got != want {
			t.Fatalf("CanonHash(%v) = %#x, oracle %#x", p, got, want)
		}
	})
}

// TestCanonHashMatchesOracle holds CanonHash to the oracle on random
// patterns like those a layer's corners give: normal form, in and
// around the window.
func TestCanonHashMatchesOracle(t *testing.T) {
	for _, p := range benchPatterns(2000) {
		if got, want := p.CanonHash(), p.canonHashOracle(); got != want {
			t.Fatalf("CanonHash(%v) = %#x, oracle %#x", p.Rects, got, want)
		}
	}
}

// benchPatterns extracts n patterns of radius 200 at the corners of
// random 60-rect layers.
func benchPatterns(n int) []Pattern {
	rnd := rand.New(rand.NewSource(40))
	var out []Pattern
	for len(out) < n {
		var rs []geom.Rect
		for i := 0; i < 60; i++ {
			x, y := rnd.Int63n(4000), rnd.Int63n(4000)
			rs = append(rs, geom.R(x, y, x+50+rnd.Int63n(300), y+50+rnd.Int63n(300)))
		}
		norm := geom.Normalize(rs)
		l := geom.BandedOf(norm)
		for _, a := range Anchors(norm) {
			if len(out) < n {
				out = append(out, ExtractAt(l, a, 200))
			}
		}
	}
	return out
}

// BenchmarkCanonHash hashes 1000 corner patterns with CanonHash
// (/two-forms) and with the oracle (/oracle); the hashes must agree.
func BenchmarkCanonHash(b *testing.B) {
	pats := benchPatterns(1000)
	for _, arm := range []struct {
		name string
		hash func(Pattern) uint64
	}{
		{"two-forms", Pattern.CanonHash},
		{"oracle", Pattern.canonHashOracle},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum = 0
				for _, p := range pats {
					sum += arm.hash(p)
				}
			}
			b.StopTimer()
			var want uint64
			for _, p := range pats {
				want += p.canonHashOracle()
			}
			if sum != want {
				b.Fatalf("%s sums to %#x, the oracle to %#x", arm.name, sum, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pats)), "ns/pattern")
		})
	}
}
