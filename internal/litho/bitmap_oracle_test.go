package litho

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// boolBitmap is the one-bool-per-pixel bitmap the packed Bitmap
// replaced, kept verbatim as the differential oracle: per-pixel
// two-sweep min/max filters, map-keyed run merging, a []bool seen-map.
type boolBitmap struct {
	Origin geom.Point
	Pitch  float64
	W, H   int
	Bits   []bool
}

func newBoolBitmap(w, h int) *boolBitmap {
	return &boolBitmap{W: w, H: h, Bits: make([]bool, w*h)}
}

// at returns the bit at (i, j) of a packed bitmap; out of range is
// false.
func (b *Bitmap) at(i, j int) bool {
	if i < 0 || j < 0 || i >= b.W || j >= b.H {
		return false
	}
	return b.words[j*b.stride+i>>6]>>(uint(i)&63)&1 != 0
}

// unpack copies a packed bitmap into the oracle representation.
func unpack(p *Bitmap) *boolBitmap {
	b := newBoolBitmap(p.W, p.H)
	b.Origin, b.Pitch = p.Origin, p.Pitch
	for j := 0; j < p.H; j++ {
		for i := 0; i < p.W; i++ {
			b.Bits[j*p.W+i] = p.at(i, j)
		}
	}
	return b
}

func (b *boolBitmap) clone() *boolBitmap {
	out := *b
	out.Bits = make([]bool, len(b.Bits))
	copy(out.Bits, b.Bits)
	return &out
}

func (b *boolBitmap) Erode(r int) *boolBitmap {
	if r <= 0 {
		return b.clone()
	}
	// A set bit survives if no unset bit lies within +-r, per axis.
	h := newBoolBitmap(b.W, b.H)
	h.Origin, h.Pitch = b.Origin, b.Pitch
	for j := 0; j < b.H; j++ {
		row := j * b.W
		lastUnset := -(r + 1) * 2
		for i := 0; i < b.W; i++ {
			if !b.Bits[row+i] {
				lastUnset = i
			}
			h.Bits[row+i] = b.Bits[row+i] && i-lastUnset > r
		}
		nextUnset := b.W + (r+1)*2
		for i := b.W - 1; i >= 0; i-- {
			if !b.Bits[row+i] {
				nextUnset = i
			}
			if nextUnset-i <= r {
				h.Bits[row+i] = false
			}
		}
	}
	v := newBoolBitmap(b.W, b.H)
	v.Origin, v.Pitch = b.Origin, b.Pitch
	for i := 0; i < b.W; i++ {
		lastUnset := -(r + 1) * 2
		for j := 0; j < b.H; j++ {
			if !h.Bits[j*b.W+i] {
				lastUnset = j
			}
			v.Bits[j*b.W+i] = h.Bits[j*b.W+i] && j-lastUnset > r
		}
		nextUnset := b.H + (r+1)*2
		for j := b.H - 1; j >= 0; j-- {
			if !h.Bits[j*b.W+i] {
				nextUnset = j
			}
			if nextUnset-j <= r {
				v.Bits[j*b.W+i] = false
			}
		}
	}
	return v
}

func (b *boolBitmap) Dilate(r int) *boolBitmap {
	if r <= 0 {
		return b.clone()
	}
	h := newBoolBitmap(b.W, b.H)
	h.Origin, h.Pitch = b.Origin, b.Pitch
	for j := 0; j < b.H; j++ {
		row := j * b.W
		last := -(r + 1) // index of the last set bit seen
		for i := 0; i < b.W; i++ {
			if b.Bits[row+i] {
				last = i
			}
			if i-last <= r {
				h.Bits[row+i] = true
			}
		}
		next := b.W + r + 1
		for i := b.W - 1; i >= 0; i-- {
			if b.Bits[row+i] {
				next = i
			}
			if next-i <= r {
				h.Bits[row+i] = true
			}
		}
	}
	v := newBoolBitmap(b.W, b.H)
	v.Origin, v.Pitch = b.Origin, b.Pitch
	for i := 0; i < b.W; i++ {
		last := -(r + 1)
		for j := 0; j < b.H; j++ {
			if h.Bits[j*b.W+i] {
				last = j
			}
			if j-last <= r {
				v.Bits[j*b.W+i] = true
			}
		}
		next := b.H + r + 1
		for j := b.H - 1; j >= 0; j-- {
			if h.Bits[j*b.W+i] {
				next = j
			}
			if next-j <= r {
				v.Bits[j*b.W+i] = true
			}
		}
	}
	return v
}

func (b *boolBitmap) Open(r int) *boolBitmap  { return b.Erode(r).Dilate(r) }
func (b *boolBitmap) Close(r int) *boolBitmap { return b.Dilate(r).Erode(r) }

func (b *boolBitmap) AndNot(o *boolBitmap) *boolBitmap {
	out := b.clone()
	for i := range out.Bits {
		out.Bits[i] = out.Bits[i] && !o.Bits[i]
	}
	return out
}

func (b *boolBitmap) pixelRect(i0, i1, j0, j1 int) geom.Rect {
	ox, oy := float64(b.Origin.X), float64(b.Origin.Y)
	return geom.R(
		int64(ox+float64(i0)*b.Pitch), int64(oy+float64(j0)*b.Pitch),
		int64(ox+float64(i1)*b.Pitch), int64(oy+float64(j1)*b.Pitch),
	)
}

func (b *boolBitmap) ToRects() []geom.Rect {
	type run struct{ i0, i1 int }
	prev := make(map[run]int) // run -> index into rects still growable
	var rects []geom.Rect
	rowEnd := make(map[run]int) // run -> last row index included
	for j := 0; j < b.H; j++ {
		cur := make(map[run]int)
		i := 0
		for i < b.W {
			if !b.Bits[j*b.W+i] {
				i++
				continue
			}
			i0 := i
			for i < b.W && b.Bits[j*b.W+i] {
				i++
			}
			rn := run{i0, i}
			if ri, ok := prev[rn]; ok && rowEnd[rn] == j-1 {
				// extend existing rect upward
				r := rects[ri]
				rects[ri] = geom.R(r.X0, r.Y0, r.X1, int64(float64(b.Origin.Y)+float64(j+1)*b.Pitch))
				cur[rn] = ri
				rowEnd[rn] = j
			} else {
				rects = append(rects, b.pixelRect(i0, i, j, j+1))
				cur[rn] = len(rects) - 1
				rowEnd[rn] = j
			}
		}
		prev = cur
	}
	return rects
}

func (b *boolBitmap) Blobs() []geom.Rect {
	seen := make([]bool, len(b.Bits))
	var boxes []geom.Rect
	var stack [][2]int
	for j := 0; j < b.H; j++ {
		for i := 0; i < b.W; i++ {
			idx := j*b.W + i
			if !b.Bits[idx] || seen[idx] {
				continue
			}
			// flood fill
			minI, maxI, minJ, maxJ := i, i, j, j
			stack = stack[:0]
			stack = append(stack, [2]int{i, j})
			seen[idx] = true
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				pi, pj := p[0], p[1]
				if pi < minI {
					minI = pi
				}
				if pi > maxI {
					maxI = pi
				}
				if pj < minJ {
					minJ = pj
				}
				if pj > maxJ {
					maxJ = pj
				}
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					ni, nj := pi+d[0], pj+d[1]
					if ni < 0 || nj < 0 || ni >= b.W || nj >= b.H {
						continue
					}
					nidx := nj*b.W + ni
					if b.Bits[nidx] && !seen[nidx] {
						seen[nidx] = true
						stack = append(stack, [2]int{ni, nj})
					}
				}
			}
			boxes = append(boxes, b.pixelRect(minI, maxI+1, minJ, maxJ+1))
		}
	}
	return boxes
}

// findHotspots is the body the hotspot detector had before detect, on
// the oracle bitmap, with the canonical (total-order) sort.
func (b *boolBitmap) findHotspots(minWidth, minSpace int64) []Hotspot {
	rw := int(float64(minWidth)/b.Pitch/2 + 0.5)
	if rw < 1 {
		rw = 1
	}
	pinched := b.AndNot(b.Open(rw))
	rs := int(float64(minSpace)/b.Pitch/2 + 0.5)
	if rs < 1 {
		rs = 1
	}
	bridged := b.Close(rs).AndNot(b)
	var out []Hotspot
	for _, bx := range pinched.Blobs() {
		if bx.Width() > int64(b.Pitch) || bx.Height() > int64(b.Pitch) {
			out = append(out, Hotspot{Kind: Pinch, Box: bx})
		}
	}
	for _, bx := range bridged.Blobs() {
		if bx.Width() > int64(b.Pitch) || bx.Height() > int64(b.Pitch) {
			out = append(out, Hotspot{Kind: Bridge, Box: bx})
		}
	}
	SortHotspots(out)
	return out
}

// randomBlocks fills a w x h bitmap with random axis-aligned blocks
// (wires, pads, slivers) and then punches random holes, so it has the
// run structure of a printed raster rather than white noise. Sizes are
// drawn small enough that radii 0..8 both keep and destroy features.
func randomBlocks(rng *rand.Rand, w, h int) *Bitmap {
	b := NewBitmap(w, h)
	b.Pitch = 5
	b.Origin = geom.Pt(int64(rng.Intn(2000)-1000), int64(rng.Intn(2000)-1000))
	paint := func(v bool) {
		bw, bh := 1+rng.Intn(24), 1+rng.Intn(24)
		if rng.Intn(4) == 0 { // a long wire
			if rng.Intn(2) == 0 {
				bw = 1 + rng.Intn(w)
			} else {
				bh = 1 + rng.Intn(h)
			}
		}
		i0, j0 := rng.Intn(w+bw)-bw, rng.Intn(h+bh)-bh
		for j := j0; j < j0+bh; j++ {
			for i := i0; i < i0+bw; i++ {
				b.Set(i, j, v)
			}
		}
	}
	n := 1 + rng.Intn(3+w*h/200)
	for k := 0; k < n; k++ {
		paint(true)
	}
	for k := rng.Intn(1 + n/3); k > 0; k-- {
		paint(false)
	}
	return b
}

// sparseBlocks is what a printed scan window looks like to the
// morphology, which randomBlocks paints too densely to be: mostly blank
// words, so that a row's extent has a margin to be widened into. A few
// small blocks, then, by the bits of rng, stripes down both edges (a
// row's extent is the full width and both its ends are the bitmap's), a
// few all-ones rows, and rows whose only set bits are in the tail word.
func sparseBlocks(rng *rand.Rand, w, h int) *Bitmap {
	b := NewBitmap(w, h)
	b.Pitch = 5
	b.Origin = geom.Pt(int64(rng.Intn(2000)-1000), int64(rng.Intn(2000)-1000))
	fill := func(i0, j0, i1, j1 int) {
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				b.Set(i, j, true)
			}
		}
	}
	for k := rng.Intn(5); k > 0; k-- {
		i0, j0 := rng.Intn(w), rng.Intn(h)
		fill(i0, j0, i0+1+rng.Intn(40), j0+1+rng.Intn(40))
	}
	mode := rng.Intn(16)
	if mode&1 != 0 {
		sw := 1 + rng.Intn(12)
		fill(0, 0, sw, h)
		fill(w-sw, rng.Intn(h), w, h)
	}
	if mode&2 != 0 {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			j := rng.Intn(h)
			fill(0, j, w, j+1+rng.Intn(3))
		}
	}
	if mode&4 != 0 {
		tail := w - 1 - (w-1)&63 // first column of the last word
		for k := 1 + rng.Intn(4); k > 0; k-- {
			i0, j0 := tail+rng.Intn(w-tail), rng.Intn(h)
			fill(i0, j0, i0+1+rng.Intn(w-i0), j0+1+rng.Intn(20))
		}
	}
	if mode&8 != 0 { // a lone pixel in each corner word
		b.Set(rng.Intn(min(w, 64)), 0, true)
		b.Set(w-1-rng.Intn(min(w, 64)), h-1, true)
	}
	return b
}

// runBlocks paints a w-column bitmap whose rows come in runs of equal
// rows, of the lengths lens from the top down, which is what the
// streaming pieces reuse their work across. The first run's row is a
// few random spans. Each later one paints over its predecessor a span
// 2r+1 to 3r+2 columns wide where the row has room, all set or all
// clear, opposite to the predecessor's pixel at the span's centre:
// eroded or dilated by r, the two rows then differ at that centre, so a
// stage whose window takes in a row of the run before when it should
// not puts out another row.
func runBlocks(rng *rand.Rand, w, r int, lens []int) *Bitmap {
	h := 0
	for _, n := range lens {
		h += n
	}
	b := NewBitmap(w, h)
	b.Pitch = 5
	b.Origin = geom.Pt(int64(rng.Intn(2000)-1000), int64(rng.Intn(2000)-1000))
	row := make([]bool, w)
	paint := func(lo, hi int) {
		sw := min(lo+rng.Intn(hi-lo+1), w)
		i0 := rng.Intn(w - sw + 1)
		v := !row[i0+sw/2]
		for i := i0; i < i0+sw; i++ {
			row[i] = v
		}
	}
	for k := rng.Intn(1 + w/8); k >= 0; k-- {
		paint(1, max(w/4, 1))
	}
	j := 0
	for k, n := range lens {
		if k > 0 {
			paint(2*r+1, 3*r+2)
		}
		for ; n > 0; n, j = n-1, j+1 {
			for i, v := range row {
				b.Set(i, j, v)
			}
		}
	}
	return b
}

// runLengths draws run lengths that fill h rows, one in two from the
// lengths around a radius-r window, 2r..2r+2, where reuse starts, and
// the rest from 1..4r+4.
func runLengths(rng *rand.Rand, h, r int) []int {
	var lens []int
	for h > 0 {
		n := 1 + rng.Intn(4*r+4)
		if rng.Intn(2) == 0 {
			n = 2*r + rng.Intn(3)
		}
		n = min(max(n, 1), h)
		lens = append(lens, n)
		h -= n
	}
	return lens
}

// not complements every in-domain pixel in place.
func (b *Bitmap) not() {
	for j := 0; j < b.H; j++ {
		row := b.row(j)
		for k, w := range row {
			row[k] = ^w
		}
		row[len(row)-1] &= tailMask(b.W)
	}
}

// blobs runs b's rows through the scan's labeller and returns each
// 4-connected component's bounding box in nm, sorted by rectOrder: the
// labeller reports a component when it closes, not in the order of its
// first pixel.
func blobs(b *Bitmap) []geom.Rect {
	var boxes []geom.Rect
	l := newLabeller(b.W, func(i0, i1, j0, j1 int) {
		boxes = append(boxes, pixelRect(b.Origin, b.Pitch, i0, i1, j0, j1))
	})
	b.rows(l.push)
	l.finish(b.H)
	slices.SortFunc(boxes, rectOrder)
	return boxes
}

// rectOrder orders rects by Y0, X0, Y1, X1.
func rectOrder(a, b geom.Rect) int {
	return cmp.Or(cmp.Compare(a.Y0, b.Y0), cmp.Compare(a.X0, b.X0), cmp.Compare(a.Y1, b.Y1), cmp.Compare(a.X1, b.X1))
}

// detectBitmap streams b's rows through the scan's detector.
func detectBitmap(b *Bitmap, minWidth, minSpace int64) []Hotspot {
	d := newDetector(b.W, b.H, b.Origin, b.Pitch, minWidth, minSpace)
	b.rows(d.push)
	return d.finish()
}

// checkPacked compares every packed operation with the oracle on one
// bitmap and radius.
func checkPacked(t *testing.T, p *Bitmap, r int) {
	t.Helper()
	o := unpack(p)
	same := func(name string, got *Bitmap, want *boolBitmap) {
		t.Helper()
		if got.W != want.W || got.H != want.H || got.Origin != want.Origin || got.Pitch != want.Pitch {
			t.Fatalf("%s(%d) on %dx%d: header %v, want %v", name, r, p.W, p.H, got, want)
		}
		set := 0
		for j := 0; j < want.H; j++ {
			for i := 0; i < want.W; i++ {
				if want.Bits[j*want.W+i] {
					set++
				}
				if got.at(i, j) != want.Bits[j*want.W+i] {
					t.Fatalf("%s(%d) on %dx%d: pixel (%d,%d) = %v, oracle %v", name, r, p.W, p.H, i, j, got.at(i, j), want.Bits[j*want.W+i])
				}
			}
		}
		// Count also proves the tail bits past column W stayed clear.
		if got.Count() != set {
			t.Fatalf("%s(%d) on %dx%d: Count = %d, oracle %d", name, r, p.W, p.H, got.Count(), set)
		}
	}
	same("Erode", p.morph(r, erosion), o.Erode(r))
	same("Dilate", p.morph(r, dilation), o.Dilate(r))
	same("Open", p.Open(r), o.Open(r))
	same("Close", p.Close(r), o.Close(r))
	want := o.Blobs()
	slices.SortFunc(want, rectOrder)
	if got := blobs(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("labeller on %dx%d = %v, oracle %v", p.W, p.H, got, want)
	}
	if got, want := p.ToRects(), o.ToRects(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ToRects on %dx%d = %v, oracle %v", p.W, p.H, got, want)
	}
	// detect's radii come from nm thresholds: (2r-1)*pitch lands on r.
	nm := int64(float64(2*r-1) * p.Pitch)
	if got, want := detectBitmap(p, nm, nm), o.findHotspots(nm, nm); !reflect.DeepEqual(got, want) {
		t.Fatalf("detector(%d nm) on %dx%d = %v, oracle %v", nm, p.W, p.H, got, want)
	}
}

// Widths straddle every word-boundary case; 2600 is a full scan window
// row (41 words, 40 tail bits).
var oracleWidths = []int{1, 63, 64, 65, 127, 128, 129, 2600}

func TestBitmapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, gen := range []func(*rand.Rand, int, int) *Bitmap{randomBlocks, sparseBlocks} {
		for _, w := range oracleWidths {
			for _, h := range []int{1, 2, 17, 64, 150} {
				if testing.Short() && w*h > 20000 {
					continue
				}
				for r := 0; r <= 8; r++ {
					checkPacked(t, gen(rng, w, h), r)
				}
			}
		}
	}
	// Radii around a word and past two: the margin a row's extent is
	// widened by is ceil(r/64) words, and a shift crosses whole words.
	for _, r := range []int{63, 64, 65, 130} {
		for _, w := range []int{1, 64, 200, 321} {
			checkPacked(t, sparseBlocks(rng, w, 9), r)
			checkPacked(t, randomBlocks(rng, w, 140), r)
		}
	}
	// All-set and all-clear: the boundary conventions with nothing else.
	for _, w := range oracleWidths {
		full := NewBitmap(w, 9)
		full.Pitch = 5
		full.not()
		checkPacked(t, full, 3)
		empty := NewBitmap(w, 9)
		empty.Pitch = 5
		checkPacked(t, empty, 3)
	}
}

// One stage on its own, at the detector's radius, at the radii where a
// row's reach crosses a word (63, 64, 65) and where the horizontal pass
// takes two passes and then three (64 and up, 127 and up): at every
// width, sparse and dense, and on bitmaps shorter than the ring.
func TestStageMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, w := range oracleWidths {
		for _, r := range []int{1, 4, 63, 64, 65, 130} {
			for _, h := range []int{1, 3, 40} {
				for _, gen := range []func(*rand.Rand, int, int) *Bitmap{randomBlocks, sparseBlocks} {
					checkStages(t, gen(rng, w, h), r, "")
				}
			}
		}
	}
}

// checkStages compares one erosion and one dilation stage at radius r
// with the oracle on p.
func checkStages(t *testing.T, p *Bitmap, r int, name string) {
	t.Helper()
	o := unpack(p)
	for _, c := range []struct {
		op   string
		got  *Bitmap
		want *boolBitmap
	}{{"erosion", p.morph(r, erosion), o.Erode(r)}, {"dilation", p.morph(r, dilation), o.Dilate(r)}} {
		// Count also proves the tail bits past column W stayed clear.
		if !slices.Equal(unpack(c.got).Bits, c.want.Bits) || c.got.Count() != c.want.count() {
			t.Fatalf("%s(%d) on %dx%d%s differs from the oracle", c.op, r, p.W, p.H, name)
		}
	}
}

// Runs of equal rows around the 2r+1 rows a stage's window holds, where
// a stage starts handing on its last output again: at the top of the
// bitmap, at the bottom, and between runs of other lengths. A reuse
// window one row too short or too long hands on a row that differs from
// the oracle's. The detector's radii run at r = 1 and 4, with runs of
// every length from 1 to 4r+4 and every operation checked; a row's reach
// crosses a word at 63, 64 and 65, with the lengths either side of 2r+1
// and 4r+4 and the stages alone checked.
func TestStagesReuseRunsOfEqualRows(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, r := range []int{1, 4, 63, 64, 65} {
		// Room for runBlocks' spans of up to 3r+2 columns.
		w := max(70, 4*r+4)
		lens := make([]int, 4*r+4)
		for n := range lens {
			lens[n] = n + 1
		}
		if r > 4 {
			lens = []int{1, 2, r, 2*r - 1, 2 * r, 2*r + 1, 2*r + 2, 2*r + 3, 4*r + 3, 4*r + 4}
		}
		check := func(p *Bitmap, name string) {
			t.Helper()
			if r <= 4 {
				checkPacked(t, p, r)
			} else {
				checkStages(t, p, r, ", "+name)
			}
		}
		for _, n := range lens {
			// n at the top and at the bottom, up to a window and a row apart.
			check(runBlocks(rng, w, r, []int{n, 1 + rng.Intn(2*r+2), n}), fmt.Sprintf("top and bottom runs of %d", n))
		}
		rng.Shuffle(len(lens), func(a, b int) { lens[a], lens[b] = lens[b], lens[a] })
		check(runBlocks(rng, w, r, lens), "every length in turn")
	}
}

// count returns the number of set pixels.
func (b *boolBitmap) count() int {
	n := 0
	for _, v := range b.Bits {
		if v {
			n++
		}
	}
	return n
}

// The labeller against the flood fill on the shapes that make a
// streaming labeller go wrong: arms that only a later row joins, and
// three of them at once; a fork; pixels that touch only at a corner,
// which are two components; runs across a word seam, one of them joined
// only by the word below; a lone pixel; components on the last row,
// one of which is only one row tall.
func TestLabellerMatchesOracle(t *testing.T) {
	fill := func(b *Bitmap, i0, j0, i1, j1 int) {
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				b.Set(i, j, true)
			}
		}
	}
	for _, c := range []struct {
		name  string
		w, h  int
		paint func(b *Bitmap)
		want  int // components
	}{
		{"U joined below its arms", 20, 8, func(b *Bitmap) {
			fill(b, 2, 0, 4, 5)
			fill(b, 9, 0, 11, 5)
			fill(b, 2, 5, 11, 6)
		}, 1},
		{"comb of three arms", 30, 9, func(b *Bitmap) {
			fill(b, 1, 0, 2, 6)
			fill(b, 5, 2, 7, 6)
			fill(b, 12, 1, 13, 6)
			fill(b, 0, 6, 14, 7)
			fill(b, 20, 6, 22, 9)
		}, 2},
		{"fork that rejoins", 20, 10, func(b *Bitmap) {
			fill(b, 3, 0, 12, 2)
			fill(b, 3, 2, 5, 7)
			fill(b, 10, 2, 12, 7)
			fill(b, 3, 7, 12, 8)
		}, 1},
		{"diagonal contact only", 6, 6, func(b *Bitmap) {
			b.Set(1, 1, true)
			b.Set(2, 2, true)
			b.Set(3, 1, true)
		}, 3},
		{"runs across a word seam", 200, 5, func(b *Bitmap) {
			fill(b, 60, 0, 70, 1)
			fill(b, 100, 0, 128, 1)
			fill(b, 127, 1, 140, 2)
			fill(b, 126, 3, 131, 4)
		}, 3},
		{"single-pixel speckle", 70, 3, func(b *Bitmap) { b.Set(64, 1, true) }, 1},
		{"on the last row", 130, 6, func(b *Bitmap) {
			fill(b, 10, 3, 12, 6)
			fill(b, 100, 5, 129, 6)
		}, 2},
	} {
		b := NewBitmap(c.w, c.h)
		b.Pitch, b.Origin = 5, geom.Pt(-40, 15)
		c.paint(b)
		want := unpack(b).Blobs()
		slices.SortFunc(want, rectOrder)
		got := blobs(b)
		if !reflect.DeepEqual(got, want) || len(got) != c.want {
			t.Errorf("%s: labeller %v, flood fill %v, want %d components", c.name, got, want, c.want)
		}
	}
}

func FuzzBitmapMorphology(f *testing.F) {
	for i, w := range oracleWidths {
		f.Add(int64(i), uint16(w), uint8(1+i*21), uint8(i))
	}
	// Rows in runs: at the detector's radii, heights of one window, of a
	// window and a row, and of several windows.
	for i, r := range []int{1, 2, 4, 8} {
		for k, h := range []int{2*r + 1, 2*r + 2, 4*r + 4, 149} {
			f.Add(int64(2+8*(4*i+k)), uint16(oracleWidths[(i+k)%len(oracleWidths)]), uint8(h-1), uint8(r))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, w uint16, h, r uint8) {
		// Height 1..150, radius 0..8, width up to a full scan window row;
		// odd seeds paint sparsely, and seeds 2 mod 4 in runs of equal
		// rows.
		rng, wd, ht, rd := rand.New(rand.NewSource(seed)), 1+int(w)%2600, 1+int(h)%150, int(r)%9
		var p *Bitmap
		switch {
		case seed&1 != 0:
			p = sparseBlocks(rng, wd, ht)
		case seed&2 != 0:
			p = runBlocks(rng, wd, rd, runLengths(rng, ht, rd))
		default:
			p = randomBlocks(rng, wd, ht)
		}
		checkPacked(t, p, rd)
	})
}

// Two markers that share a lower-left corner and a kind used to come
// out of the (Y0, X0, Kind) comparator in either order under the
// unstable sort.Slice. SortHotspots must be permutation-invariant.
func TestSortHotspotsTotalOrder(t *testing.T) {
	var want []Hotspot
	for k := 0; k < 40; k++ {
		// 40 distinct boxes on one corner, ascending in (X1, Y1).
		want = append(want, Hotspot{Pinch, geom.R(100, 200, 110+int64(k/5), 210+int64(k%5))})
	}
	if !sort.SliceIsSorted(want, func(i, j int) bool {
		a, b := want[i].Box, want[j].Box
		return a.X1 < b.X1 || a.X1 == b.X1 && a.Y1 < b.Y1
	}) {
		t.Fatal("test table is not in canonical order")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		got := append([]Hotspot(nil), want...)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		SortHotspots(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffled input sorted to %v, want %v", trial, got, want)
		}
	}
}
