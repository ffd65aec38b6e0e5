package litho

import (
	"math/bits"

	"repro/internal/geom"
)

// Bitmap is a binary raster aligned with a Grid, used for printed-
// region morphology (pinch/bridge detection) and vectorization.
//
// Pixels are packed 64 to a word, row-major with one padded row
// stride: pixel (i, j) is bit i&63 of words[j*stride+i>>6]. The tail
// bits of each row's last word (columns >= W) are always zero; every
// operation below relies on that and restores it.
type Bitmap struct {
	Origin geom.Point
	Pitch  float64
	W, H   int

	stride int // words per row
	words  []uint64
}

// NewBitmap allocates a cleared W x H bitmap.
func NewBitmap(w, h int) *Bitmap {
	stride := (w + 63) / 64
	return &Bitmap{W: w, H: h, stride: stride, words: make([]uint64, stride*h)}
}

// At returns the bit at (i, j); out of range is false.
func (b *Bitmap) At(i, j int) bool {
	if i < 0 || j < 0 || i >= b.W || j >= b.H {
		return false
	}
	return b.words[j*b.stride+i>>6]>>(uint(i)&63)&1 != 0
}

// Set writes the bit at (i, j); out-of-range writes are ignored.
func (b *Bitmap) Set(i, j int, v bool) {
	if i < 0 || j < 0 || i >= b.W || j >= b.H {
		return
	}
	if v {
		b.words[j*b.stride+i>>6] |= 1 << (uint(i) & 63)
	} else {
		b.words[j*b.stride+i>>6] &^= 1 << (uint(i) & 63)
	}
}

// row returns the words of row j.
func (b *Bitmap) row(j int) []uint64 {
	return b.words[j*b.stride : (j+1)*b.stride]
}

// tailMask returns the valid-column mask of a row's last word.
func (b *Bitmap) tailMask() uint64 {
	if t := uint(b.W) & 63; t != 0 {
		return 1<<t - 1
	}
	return ^uint64(0)
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// clone copies the bitmap.
func (b *Bitmap) clone() *Bitmap {
	out := *b
	out.words = make([]uint64, len(b.words))
	copy(out.words, b.words)
	return &out
}

// morph returns a copy of b with the in-place operations applied in
// order at radius r, sharing one scratch; r <= 0 is the identity.
func (b *Bitmap) morph(r int, ops ...func(*Bitmap, int, []uint64)) *Bitmap {
	out := b.clone()
	if r > 0 {
		tmp := make([]uint64, len(out.words))
		for _, op := range ops {
			op(out, r, tmp)
		}
	}
	return out
}

// Open is erosion followed by dilation: removes features thinner than
// 2r+1 pixels.
func (b *Bitmap) Open(r int) *Bitmap { return b.morph(r, (*Bitmap).erode, (*Bitmap).dilate) }

// Close is dilation followed by erosion: fills gaps thinner than 2r+1
// pixels.
func (b *Bitmap) Close(r int) *Bitmap { return b.morph(r, (*Bitmap).dilate, (*Bitmap).erode) }

// A printed scan window is mostly blank — a ring down one side, a macro
// in the middle — so erode and dilate cost what the bitmap holds, not
// what it spans: each works a row at a time on the row's extent, the
// words from its first to its last non-zero one, and never looks at
// the blank words outside it except to find where they end. The
// horizontal pass grows its reach by doubling (reach s becomes s+step
// by one OR with a copy shifted step <= s), O(log r) passes over the
// extent; the vertical pass is 2r+1 word-wise row operations per
// extent: O(r), not O(log r), because doubling vertically would have
// to walk whole rows of the whole bitmap. Every radius in production
// is single-digit (detect: 4 px at N45; opc/ilt.go:
// MinFeature/(2*GridNM)), where the two are within a pass or two of
// each other per word.
//
// Both take tmp, scratch of len(b.words) that is all zero on entry and
// all zero again on return.

// extent returns the range [lo, hi) of the row's words from its first
// to its last non-zero one; lo == hi when the row is blank.
func extent(row []uint64) (lo, hi int) {
	hi = len(row)
	for hi > 0 && row[hi-1] == 0 {
		hi--
	}
	for lo < hi && row[lo] == 0 {
		lo++
	}
	return lo, hi
}

// reach is row j's extent widened by ceil(r/64) words either way,
// clipped to the row: every word a horizontal pass at radius r can
// change or needs to see. The margin words are blank, so whatever the
// pass shifts in at the ends of the range is what the rest of the row
// would have supplied; where the range stops at the row's end there is
// no margin, and what shifts in there is the pass's convention for the
// outside of the bitmap.
func (b *Bitmap) reach(j, r int) (lo, hi int) {
	lo, hi = extent(b.row(j))
	if lo == hi {
		return lo, hi
	}
	m := (r + 63) >> 6
	return max(lo-m, 0), min(hi+m, b.stride)
}

// spread ORs row with itself shifted up to r bits either way, bits
// carried across words and zeros shifted in at both ends. left is
// scratch of len(row); it is zeroed before returning.
func spread(row, left []uint64, r int) {
	copy(left, row)
	for s := 1; s <= r; {
		step := min(s, r+1-s)
		orShiftUp(left, step)
		orShiftDown(row, step)
		s += step
	}
	for k, w := range left {
		row[k] |= w
		left[k] = 0
	}
}

// invert complements row in place and ANDs its last word with tail.
func invert(row []uint64, tail uint64) {
	for k, w := range row {
		row[k] = ^w
	}
	row[len(row)-1] &= tail
}

// tailOf is the mask for the last word of the range ending at word hi
// of a row: the row's tail mask when the range ends the row.
func (b *Bitmap) tailOf(hi int) uint64 {
	if hi == b.stride {
		return b.tailMask()
	}
	return ^uint64(0)
}

// erode erodes in place by r > 0 with the outside of the bitmap
// counted as set. Horizontally it is the dilation of the complement
// (outside unset) on each row's reach: the blank margin complements to
// ones, stays ones, and complements back to blank. Vertically a row is
// ANDed with the rows up to r above and below it over its own extent
// only — erosion removes, so nothing outside a row's extent survives
// it — and rows past the top and bottom drop out of the AND.
func (b *Bitmap) erode(r int, tmp []uint64) {
	for j := 0; j < b.H; j++ {
		lo, hi := b.reach(j, r)
		if lo == hi {
			continue
		}
		sub, tail := b.row(j)[lo:hi], b.tailOf(hi)
		invert(sub, tail)
		spread(sub, tmp[:len(sub)], r)
		invert(sub, tail)
	}
	for j := 0; j < b.H; j++ {
		lo, hi := extent(b.row(j))
		if lo == hi {
			continue
		}
		acc := tmp[j*b.stride+lo : j*b.stride+hi]
		copy(acc, b.row(j)[lo:hi])
		for jj := max(j-r, 0); jj <= min(j+r, b.H-1); jj++ {
			if jj == j {
				continue
			}
			for k, w := range b.row(jj)[lo:hi] {
				acc[k] &= w
			}
		}
	}
	for j := 0; j < b.H; j++ {
		lo, hi := extent(b.row(j))
		acc := tmp[j*b.stride+lo : j*b.stride+hi]
		copy(b.row(j)[lo:hi], acc)
		clear(acc)
	}
}

// dilate dilates in place by r > 0 with the outside of the bitmap
// counted as unset: each row's reach is spread r columns either way,
// then each row's extent is ORed into the rows up to r above and below
// it, whole words at a time.
func (b *Bitmap) dilate(r int, tmp []uint64) {
	for j := 0; j < b.H; j++ {
		lo, hi := b.reach(j, r)
		if lo == hi {
			continue
		}
		sub := b.row(j)[lo:hi]
		spread(sub, tmp[:len(sub)], r)
		sub[len(sub)-1] &= b.tailOf(hi)
	}
	for j := 0; j < b.H; j++ {
		lo, hi := extent(b.row(j))
		if lo == hi {
			continue
		}
		src := b.row(j)[lo:hi]
		for jj := max(j-r, 0); jj <= min(j+r, b.H-1); jj++ {
			acc := tmp[jj*b.stride+lo : jj*b.stride+hi]
			for k, w := range src {
				acc[k] |= w
			}
		}
	}
	for j := 0; j < b.H; j++ {
		acc := tmp[j*b.stride : (j+1)*b.stride]
		lo, hi := extent(acc)
		copy(b.row(j)[lo:hi], acc[lo:hi])
		clear(acc[lo:hi])
	}
}

// orShiftUp ORs the row with itself shifted n bits toward higher
// columns, in place.
func orShiftUp(row []uint64, n int) {
	off, sh := n>>6, uint(n)&63
	for k := len(row) - 1; k >= off; k-- {
		w := row[k-off] << sh
		if sh != 0 && k-off-1 >= 0 {
			w |= row[k-off-1] >> (64 - sh)
		}
		row[k] |= w
	}
}

// orShiftDown ORs the row with itself shifted n bits toward lower
// columns, in place.
func orShiftDown(row []uint64, n int) {
	off, sh := n>>6, uint(n)&63
	for k := 0; k+off < len(row); k++ {
		w := row[k+off] >> sh
		if sh != 0 && k+off+1 < len(row) {
			w |= row[k+off+1] << (64 - sh)
		}
		row[k] |= w
	}
}

// AndNot returns b AND NOT o.
func (b *Bitmap) AndNot(o *Bitmap) *Bitmap {
	out := b.clone()
	for i, w := range o.words {
		out.words[i] &^= w
	}
	return out
}

// And returns b AND o.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	out := b.clone()
	for i, w := range o.words {
		out.words[i] &= w
	}
	return out
}

// Or returns b OR o.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	out := b.clone()
	for i, w := range o.words {
		out.words[i] |= w
	}
	return out
}

// pixelRect returns the nm rect of pixel run [i0, i1) x row j.
func (b *Bitmap) pixelRect(i0, i1, j0, j1 int) geom.Rect {
	ox, oy := float64(b.Origin.X), float64(b.Origin.Y)
	return geom.R(
		int64(ox+float64(i0)*b.Pitch), int64(oy+float64(j0)*b.Pitch),
		int64(ox+float64(i1)*b.Pitch), int64(oy+float64(j1)*b.Pitch),
	)
}

// nextSet returns the first column >= i whose bit is set in the row,
// or w if there is none.
func nextSet(row []uint64, i, w int) int {
	for k := i >> 6; i < w; k, i = k+1, (k+1)<<6 {
		if rest := row[k] >> (uint(i) & 63); rest != 0 {
			return i + bits.TrailingZeros64(rest)
		}
	}
	return w
}

// nextClear returns the first column >= i whose bit is clear in the
// row, or w if there is none (the zero tail bits end a run at w).
func nextClear(row []uint64, i, w int) int {
	for k := i >> 6; i < w; k, i = k+1, (k+1)<<6 {
		if rest := ^row[k] >> (uint(i) & 63); rest != 0 {
			return min(i+bits.TrailingZeros64(rest), w)
		}
	}
	return w
}

// ToRects vectorizes the set region into maximal-row rectangles:
// horizontal runs per row, merged vertically when aligned. The output
// is a valid disjoint rect set in nm coordinates, ordered by the row
// and column at which each rectangle starts.
func (b *Bitmap) ToRects() []geom.Rect {
	type run struct{ i0, i1, rect int } // columns [i0, i1), index into rects
	var rects []geom.Rect
	var prev, cur []run // runs of the previous and current row, by column
	for j := 0; j < b.H; j++ {
		row := b.row(j)
		cur = cur[:0]
		p := 0
		for i := nextSet(row, 0, b.W); i < b.W; {
			i1 := nextClear(row, i, b.W)
			for p < len(prev) && prev[p].i0 < i {
				p++
			}
			if p < len(prev) && prev[p].i0 == i && prev[p].i1 == i1 {
				// extend the rect below upward
				ri := prev[p].rect
				r := rects[ri]
				rects[ri] = geom.R(r.X0, r.Y0, r.X1, int64(float64(b.Origin.Y)+float64(j+1)*b.Pitch))
				cur = append(cur, run{i, i1, ri})
			} else {
				rects = append(rects, b.pixelRect(i, i1, j, j+1))
				cur = append(cur, run{i, i1, len(rects) - 1})
			}
			i = nextSet(row, i1, b.W)
		}
		prev, cur = cur, prev
	}
	return rects
}

// Blobs groups set pixels into 4-connected components and returns each
// component's bounding box in nm, in row-major order of each
// component's first pixel (lowest row, then lowest column). Used to
// turn flagged hotspot pixels into reportable sites. It consumes the
// bitmap: the flood fill clears each pixel as it reaches it instead of
// marking it in a second bitmap, so the receiver is left empty. Call
// it on a clone to keep the pixels.
func (b *Bitmap) Blobs() []geom.Rect {
	var boxes []geom.Rect
	var stack [][2]int
	for j := 0; j < b.H; j++ {
		for k := 0; k < b.stride; k++ {
			// Re-read per seed: each fill clears more of this word.
			for b.words[j*b.stride+k] != 0 {
				i := k<<6 + bits.TrailingZeros64(b.words[j*b.stride+k])
				// flood fill
				minI, maxI, minJ, maxJ := i, i, j, j
				stack = append(stack[:0], [2]int{i, j})
				b.Set(i, j, false)
				for len(stack) > 0 {
					p := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					pi, pj := p[0], p[1]
					minI, maxI = min(minI, pi), max(maxI, pi)
					minJ, maxJ = min(minJ, pj), max(maxJ, pj)
					for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
						ni, nj := pi+d[0], pj+d[1]
						if b.At(ni, nj) {
							b.Set(ni, nj, false)
							stack = append(stack, [2]int{ni, nj})
						}
					}
				}
				boxes = append(boxes, b.pixelRect(minI, maxI+1, minJ, maxJ+1))
			}
		}
	}
	return boxes
}
