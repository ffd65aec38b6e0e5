package litho

import (
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// Bitmap is a binary raster aligned with a Grid: the PV band's
// overlays, ILT's mask cleanup and vectorization. The hotspot scan
// never builds one; it streams rows in the same layout (stream.go).
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

// Open is erosion followed by dilation: removes features thinner than
// 2r+1 pixels.
func (b *Bitmap) Open(r int) *Bitmap { return b.morph(r, erosion, dilation) }

// Close is dilation followed by erosion: fills gaps thinner than 2r+1
// pixels.
func (b *Bitmap) Close(r int) *Bitmap { return b.morph(r, dilation, erosion) }

// morph pushes b's rows through one streaming stage (stream.go) per op
// at radius r, in order, and returns what comes out of the last as a
// new bitmap; r <= 0 is a copy.
func (b *Bitmap) morph(r int, ops ...morphOp) *Bitmap {
	if r <= 0 {
		return b.clone()
	}
	out := NewBitmap(b.W, b.H)
	out.Origin, out.Pitch = b.Origin, b.Pitch
	stages := make([]*stage, len(ops))
	for i, op := range ops {
		stages[i] = newStage(op, r, b.W, b.H)
	}
	head := chain(func(j int, row []uint64, lo, hi int, _ bool) {
		copy(out.row(j)[lo:hi], row[lo:hi])
	}, stages...)
	b.rows(head.push)
	head.finish()
	return out
}

// rows pushes each row of b into sink, with its extent and whether it
// equals the row before it.
func (b *Bitmap) rows(sink rowFunc) {
	for j := 0; j < b.H; j++ {
		lo, hi := trim(b.row(j), 0, b.stride)
		sink(j, b.row(j), lo, hi, j > 0 && slices.Equal(b.row(j), b.row(j-1)))
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

// pixelRect returns the nm rect of pixels [i0, i1) x [j0, j1) of a
// raster with the given origin and pitch.
func pixelRect(origin geom.Point, pitch float64, i0, i1, j0, j1 int) geom.Rect {
	ox, oy := float64(origin.X), float64(origin.Y)
	return geom.R(
		int64(ox+float64(i0)*pitch), int64(oy+float64(j0)*pitch),
		int64(ox+float64(i1)*pitch), int64(oy+float64(j1)*pitch),
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
				rects = append(rects, pixelRect(b.Origin, b.Pitch, i, i1, j, j+1))
				cur = append(cur, run{i, i1, len(rects) - 1})
			}
			i = nextSet(row, i1, b.W)
		}
		prev, cur = cur, prev
	}
	return rects
}
