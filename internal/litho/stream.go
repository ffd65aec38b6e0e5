package litho

// Row-streaming morphology and labelling. A printed scan window is
// opened, closed and cut into hotspot components a row at a time, as
// the render thresholds it: no stage holds more than 2r+1 rows, so a
// window of any height costs a few kilobytes of rings instead of a
// bitmap per operation (DESIGN.md "Litho kernel data structures").
//
// Every row handed from one piece to the next is a row of words in the
// Bitmap layout (column i is bit i&63 of word i>>6, the bits past the
// last column clear) with its extent [lo, hi): the words from its first
// to its last non-zero one, lo == hi for a blank row. The row is zero
// outside its extent, and it is only valid during the call it is
// handed in.
//
// A row also comes flagged when it equals the row before it, bit for
// bit; row 0 never is. A Manhattan mask under a separable blur prints
// long runs of equal rows, and every piece turns the flag into work it
// skips, each step exact Boolean arithmetic on identical inputs: a
// stage copies its previous ring row instead of running the horizontal
// pass; once its rows j-r-1..j+r are one run, output rows j-1 and j
// are the AND or the OR of equal rows, so it hands on output row j-1
// again, flagged, without the 2r+1-way AND or OR; the detector skips a
// residue row whose printed and chain rows are both flagged; and the
// labeller takes a flagged row as a no-op. An equal row's runs each
// overlap their twin in the row before and nothing else, since runs
// are maximal and so a column apart: every open component is reached
// once, none merges, none closes and no box grows, so the state the
// labeller would leave is the state it holds.

// rowFunc receives row j of a stream, rows in ascending order; same
// reports that it equals row j-1.
type rowFunc func(j int, row []uint64, lo, hi int, same bool)

// morphOp is the operation of a stage.
type morphOp bool

const (
	// dilation sets a pixel when any pixel within r of it on the row and
	// then on the column is set; outside the bitmap counts as unset.
	dilation morphOp = false
	// erosion keeps a pixel when every pixel within r of it on the row
	// and then on the column is set; outside the bitmap counts as set.
	erosion morphOp = true
)

// stage is one erosion or dilation at radius r > 0 by the (2r+1)-pixel
// square, streamed: each row pushed in is spread or narrowed along the
// row into a ring of the last min(2r+1, h) rows, and output row j, the
// AND (erosion) or OR (dilation) of the ring's rows j-r..j+r that exist,
// goes to the next stage, or to sink at the end of a chain, as soon as
// row j+r is in. Rows past the top and bottom of the bitmap drop out of
// the AND or the OR, which is the outside convention of each.
type stage struct {
	op      morphOp
	r, h    int
	steps   [][]uint // the horizontal pass's doubling shifts: one list per pass of at most 63 columns
	tail    uint64   // valid-column mask of a row's last word
	ring    []uint64 // min(2r+1, h) rows of stride words, row j in slot j % len(ext)
	ext     [][2]int // each slot's extent
	out     []uint64 // the row last handed on, zero outside outExt
	outExt  [2]int
	next    *stage
	sink    rowFunc
	pending int // the next output row
	run     int // the first input row of the run of equal rows the last one pushed is in
}

// newStage returns a stage of op at radius r > 0 over rows of w columns
// of an h-row bitmap.
func newStage(op morphOp, r, w, h int) *stage {
	stride := (w + 63) / 64
	n := min(2*r+1, h)
	s := &stage{op: op, r: r, h: h, tail: tailMask(w), ring: make([]uint64, n*stride),
		ext: make([][2]int, n), out: make([]uint64, stride)}
	// A radius above 63 is passes of at most 63 columns: erosion and
	// dilation by a segment compose, and the passes between them restrict
	// to the row as the outside convention says (erosion by a then by b
	// keeps what erosion by a+b keeps, at every pixel of the row).
	for left := r; left > 0; left -= 63 {
		s.steps = append(s.steps, doubling(min(left, 63)))
	}
	return s
}

// chain links stages so that each hands its rows to the next and the
// last to sink, and returns the first.
func chain(sink rowFunc, stages ...*stage) *stage {
	for i, s := range stages {
		if i+1 < len(stages) {
			s.next = stages[i+1]
		} else {
			s.sink = sink
		}
	}
	return stages[0]
}

// doubling returns the shifts that grow a reach of 0 to r by doubling:
// each shift is at most the reach so far, so the offsets stay
// contiguous, and the last stops at r exactly.
func doubling(r int) []uint {
	var steps []uint
	for s := 1; s <= r; {
		step := min(s, r+1-s)
		steps = append(steps, uint(step))
		s += step
	}
	return steps
}

// tailMask is the valid-column mask of the last word of a w-column row.
func tailMask(w int) uint64 {
	if t := uint(w) & 63; t != 0 {
		return 1<<t - 1
	}
	return ^uint64(0)
}

// slot returns the ring row that holds row j.
func (s *stage) slot(j int) []uint64 {
	k, stride := j%len(s.ext), len(s.out)
	return s.ring[k*stride : (k+1)*stride]
}

// push takes row j of the stage's input; same reports that it equals
// row j-1, whose horizontal pass it then copies.
func (s *stage) push(j int, row []uint64, lo, hi int, same bool) {
	e := &s.ext[j%len(s.ext)]
	if same {
		prev, slot := s.ext[(j-1)%len(s.ext)], s.slot(j)
		clearOutside(slot, e[0], e[1], prev[0], prev[1])
		copy(slot[prev[0]:prev[1]], s.slot(j - 1)[prev[0]:prev[1]])
		*e = prev
	} else {
		s.run = j
		e[0], e[1] = s.horizontal(s.slot(j), *e, row, lo, hi)
	}
	if j >= s.r {
		s.emit(j - s.r)
	}
}

// finish hands on the rows still waiting for rows below the bitmap's
// last, then finishes the next stage.
func (s *stage) finish() {
	for s.pending < s.h {
		s.emit(s.pending)
	}
	if s.next != nil {
		s.next.finish()
	}
}

// horizontal writes row's extent, spread (dilation) or narrowed
// (erosion) r columns either way, into slot, whose old content has the
// extent old, and returns the extent of what it wrote. Erosion only
// removes, so it writes over the row's extent; dilation reaches one
// word further either way per pass.
func (s *stage) horizontal(slot []uint64, old [2]int, row []uint64, lo, hi int) (int, int) {
	if lo == hi {
		clear(slot[old[0]:old[1]])
		return 0, 0
	}
	var flip uint64
	grow := 1
	if s.op == erosion {
		// Erosion is the complement of the dilation of the complement,
		// outside the bitmap set, so its complement is clear: the same
		// pass on flipped words, with the bits past the last column
		// flipped back to clear.
		flip, grow = ^uint64(0), 0
	}
	wlo, whi := max(lo-grow, 0), min(hi+grow, len(slot))
	clearOutside(slot, old[0], old[1], wlo, whi)
	src := row
	for i, steps := range s.steps {
		if i > 0 {
			wlo, whi, src = max(wlo-grow, 0), min(whi+grow, len(slot)), slot
		}
		hpass(slot, src, wlo, whi, steps, flip, s.tail)
	}
	return trim(slot, wlo, whi)
}

// hpass writes dst[lo:hi) with src dilated r <= 63 columns either way
// in complement space flip, r being the sum of the doubling steps.
// Words outside the row are clear, the bits of the last word past the
// row's last column are clear, and so are the words of src outside
// [lo, hi) that a caller's extent says are zero. dst may be src: each
// word is read before the one below it is written.
//
// Each word is spread within itself both ways by doubling, once; a
// word's output is its two spreads plus what the spreads of the words
// beside it carry across the seam. Spreading by r toward lower columns
// and shifting up by 64-r leaves exactly the bits that spreading by r
// toward higher columns would move out of the top of the word below:
// OR over d = 1..r of x>>(64-d) is (OR over d = 0..r of x>>d) >> (64-r),
// and the same upside down for the word above.
func hpass(dst, src []uint64, lo, hi int, steps []uint, flip, tail uint64) {
	last := len(src) - 1
	word := func(k int) uint64 {
		if k < 0 || k > last {
			return 0
		}
		v := src[k] ^ flip
		if k == last {
			v &= tail
		}
		return v
	}
	smear := func(x uint64) (up, down uint64) {
		up, down = x, x
		for _, sh := range steps {
			up |= up << (sh & 63)
			down |= down >> (sh & 63)
		}
		return up, down
	}
	r := uint(0)
	for _, sh := range steps {
		r += sh
	}
	seam := (64 - r) & 63
	_, downPrev := smear(word(lo - 1))
	upCur, downCur := smear(word(lo))
	for k := lo; k < hi; k++ {
		upNext, downNext := smear(word(k + 1))
		dst[k] = (upCur | downCur | downPrev>>seam | upNext<<seam) ^ flip
		downPrev, upCur, downCur = downCur, upNext, downNext
	}
	if hi == last+1 {
		dst[last] &= tail
	}
}

// emit hands on output row j: the AND or OR of the ring rows within r
// of it, over their common (erosion) or joint (dilation) extent. When
// the input rows j-r-1..j+r that exist are one run, output rows j-1
// and j take the AND or the OR of equal rows, and the row last handed
// on goes again, flagged.
func (s *stage) emit(j int) {
	s.pending = j + 1
	if j > 0 && s.run <= max(j-1-s.r, 0) {
		s.hand(j, true)
		return
	}
	n, stride := len(s.ext), len(s.out)
	j0, j1 := max(j-s.r, 0), min(j+s.r, s.h-1)
	lo, hi := stride, 0
	if s.op == erosion {
		lo, hi = 0, stride
	}
	for jj := j0; jj <= j1; jj++ {
		e := s.ext[jj%n]
		if s.op == erosion {
			lo, hi = max(lo, e[0]), min(hi, e[1])
		} else if e[0] < e[1] {
			lo, hi = min(lo, e[0]), max(hi, e[1])
		}
	}
	if lo >= hi {
		lo, hi = 0, 0
	}
	clearOutside(s.out, s.outExt[0], s.outExt[1], lo, hi)
	if lo < hi {
		acc := s.out[lo:hi]
		if s.op == erosion {
			copy(acc, s.slot(j0)[lo:hi])
			for jj := j0 + 1; jj <= j1; jj++ {
				src := s.slot(jj)[lo:hi]
				for k := range acc {
					acc[k] &= src[k]
				}
			}
		} else {
			clear(acc)
			for jj := j0; jj <= j1; jj++ {
				e := s.ext[jj%n]
				if e[0] == e[1] {
					continue
				}
				dst := acc[e[0]-lo : e[1]-lo]
				for k, w := range s.slot(jj)[e[0]:e[1]] {
					dst[k] |= w
				}
			}
		}
		lo, hi = trim(s.out, lo, hi)
	}
	s.outExt = [2]int{lo, hi}
	s.hand(j, false)
}

// hand passes out as output row j to the next stage or the sink.
func (s *stage) hand(j int, same bool) {
	if s.next != nil {
		s.next.push(j, s.out, s.outExt[0], s.outExt[1], same)
	} else {
		s.sink(j, s.out, s.outExt[0], s.outExt[1], same)
	}
}

// clearOutside zeroes the words of row in the extent [lo, hi) that lie
// outside the range [nlo, nhi) about to be written.
func clearOutside(row []uint64, lo, hi, nlo, nhi int) {
	if nlo >= nhi {
		clear(row[lo:hi])
		return
	}
	if lo < nlo {
		clear(row[lo:min(hi, nlo)])
	}
	if hi > nhi {
		clear(row[max(lo, nhi):hi])
	}
}

// trim narrows [lo, hi) to the words of row from its first to its last
// non-zero one; lo == hi == 0 when there are none.
func trim(row []uint64, lo, hi int) (int, int) {
	for hi > lo && row[hi-1] == 0 {
		hi--
	}
	for lo < hi && row[lo] == 0 {
		lo++
	}
	if lo == hi {
		return 0, 0
	}
	return lo, hi
}

// labeller groups the set pixels of a row stream into 4-connected
// components and hands each component's bounding box, in pixels, to
// emit once no later row can reach it: rows [j0, j1) by columns
// [i0, i1). A row's runs are matched against the previous row's by
// column overlap, components that meet are merged through a union-find
// over the two rows' labels, and after each row the labels still in use
// are renumbered from 0, so what it holds is two rows of runs, however
// many rows and components the stream has.
type labeller struct {
	w         int
	prev, cur []run
	comps     []comp // the previous row's components, then the ones this row opens
	spare     []comp
	emit      func(i0, i1, j0, j1 int)
}

// run is a row's maximal set span [i0, i1) and its component's label.
type run struct{ i0, i1, c int }

// comp is a component's box so far, its union-find parent, the last row
// it was seen on (or, once closed, the row it was closed at) and its
// label in the next row's numbering (-1 before it has one).
type comp struct{ i0, i1, j0, parent, mark, to int }

// newLabeller returns a labeller of w-column rows.
func newLabeller(w int, emit func(i0, i1, j0, j1 int)) *labeller {
	return &labeller{w: w, emit: emit}
}

// find returns the root of c's component, halving the path to it.
func (l *labeller) find(c int) int {
	for l.comps[c].parent != c {
		p := l.comps[c].parent
		l.comps[c].parent = l.comps[p].parent
		c = p
	}
	return c
}

// push takes row j; rows must come in order, blank ones too. A row
// equal to row j-1 changes nothing (see the top of this file).
func (l *labeller) push(j int, row []uint64, lo, hi int, same bool) {
	if same {
		return
	}
	end := min(hi<<6, l.w)
	l.cur = l.cur[:0]
	p := 0
	for i := nextSet(row, lo<<6, end); i < end; {
		i1 := nextClear(row, i, end)
		for p < len(l.prev) && l.prev[p].i1 <= i {
			p++
		}
		c := -1
		// Every previous run overlapping [i, i1) is the same component
		// from here on. p stays on the last of them: the next run of this
		// row may overlap it too.
		for q := p; q < len(l.prev) && l.prev[q].i0 < i1; q++ {
			pc := l.find(l.prev[q].c)
			if c < 0 {
				c = pc
			} else if pc != c {
				l.comps[pc].parent = c
				a, b := &l.comps[c], l.comps[pc]
				a.i0, a.i1, a.j0 = min(a.i0, b.i0), max(a.i1, b.i1), min(a.j0, b.j0)
			}
		}
		if c < 0 {
			c = len(l.comps)
			l.comps = append(l.comps, comp{i0: i, i1: i1, j0: j, parent: c, to: -1})
		} else {
			a := &l.comps[c]
			a.i0, a.i1 = min(a.i0, i), max(a.i1, i1)
		}
		l.cur = append(l.cur, run{i, i1, c})
		i = nextSet(row, i1, end)
	}
	for k := range l.cur {
		c := l.find(l.cur[k].c)
		l.cur[k].c = c
		l.comps[c].mark = j
	}
	// A component of the previous row that no run of this one reached is
	// complete: nothing below can join it.
	for _, pr := range l.prev {
		if c := l.find(pr.c); l.comps[c].mark != j {
			a := l.comps[c]
			l.emit(a.i0, a.i1, a.j0, j)
			l.comps[c].mark = j
		}
	}
	next := l.spare[:0]
	for k, rn := range l.cur {
		a := &l.comps[rn.c]
		if a.to < 0 {
			a.to = len(next)
			next = append(next, comp{i0: a.i0, i1: a.i1, j0: a.j0, parent: len(next), mark: j, to: -1})
		}
		l.cur[k].c = a.to
	}
	l.spare, l.comps = l.comps, next
	l.prev, l.cur = l.cur, l.prev
}

// finish closes the components of the last row pushed, an h-row
// stream's row h-1.
func (l *labeller) finish(h int) {
	for _, a := range l.comps {
		l.emit(a.i0, a.i1, a.j0, h)
	}
}
