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

// erode erodes in place by duality: with the outside counted as set,
// eroding b is dilating its in-domain complement with the outside
// counted as unset. tmp is scratch of len(b.words).
func (b *Bitmap) erode(r int, tmp []uint64) {
	b.not()
	b.dilate(r, tmp)
	b.not()
}

// not complements every in-domain pixel in place.
func (b *Bitmap) not() {
	if len(b.words) == 0 {
		return
	}
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	mask := b.tailMask()
	for k := b.stride - 1; k < len(b.words); k += b.stride {
		b.words[k] &= mask
	}
}

// dilate dilates in place by r > 0: a horizontal pass that ORs each
// row with itself shifted up to r columns either way (bits carried
// across words), then a vertical pass that ORs each row with the rows
// up to r above and below it, whole words at a time. Each direction
// grows its reach by doubling — reach s becomes s+step by one OR with
// a copy shifted step <= s — so a radius costs O(log r) passes. Zeros
// shift in at every edge, which is the outside-is-unset convention.
// tmp is scratch of len(b.words).
func (b *Bitmap) dilate(r int, tmp []uint64) {
	if len(b.words) == 0 {
		return
	}
	mask := b.tailMask()
	left := tmp[:b.stride]
	for j := 0; j < b.H; j++ {
		row := b.row(j)
		copy(left, row)
		for s := 1; s <= r; {
			step := min(s, r+1-s)
			orShiftUp(left, step)
			orShiftDown(row, step)
			s += step
		}
		for k, w := range left {
			row[k] |= w
		}
		row[b.stride-1] &= mask
	}

	down := tmp[:len(b.words)]
	copy(down, b.words)
	for s := 1; s <= r; {
		step := min(s, r+1-s)
		off := step * b.stride
		// down: row j takes row j-step (descending, so sources are
		// still unmodified); b.words: row j takes row j+step.
		for k := len(down) - 1; k >= off; k-- {
			down[k] |= down[k-off]
		}
		for k := 0; k+off < len(b.words); k++ {
			b.words[k] |= b.words[k+off]
		}
		s += step
	}
	for k, w := range down {
		b.words[k] |= w
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
// turn flagged hotspot pixels into reportable sites.
func (b *Bitmap) Blobs() []geom.Rect {
	seen := NewBitmap(b.W, b.H)
	var boxes []geom.Rect
	var stack [][2]int
	for j := 0; j < b.H; j++ {
		for k := 0; k < b.stride; k++ {
			for {
				// Re-read per seed: the fill below marks more of this word.
				fresh := b.words[j*b.stride+k] &^ seen.words[j*b.stride+k]
				if fresh == 0 {
					break
				}
				i := k<<6 + bits.TrailingZeros64(fresh)
				// flood fill
				minI, maxI, minJ, maxJ := i, i, j, j
				stack = append(stack[:0], [2]int{i, j})
				seen.Set(i, j, true)
				for len(stack) > 0 {
					p := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					pi, pj := p[0], p[1]
					minI, maxI = min(minI, pi), max(maxI, pi)
					minJ, maxJ = min(minJ, pj), max(maxJ, pj)
					for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
						ni, nj := pi+d[0], pj+d[1]
						if b.At(ni, nj) && !seen.At(ni, nj) {
							seen.Set(ni, nj, true)
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
