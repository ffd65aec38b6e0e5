// Package keysort sorts records by sorting integers: the caller packs
// each record's sort fields into one uint64 key above the record's index,
// sorts the keys, and moves the records after them. A tile's canonical
// order (package tiling), the sweep's y-events and the vertical sides of
// a boundary (package geom) are sorted this way.
//
// A key column of n records carries the index i of its record in its low
// idxBits bits, bits.Len(n-1) or more, and the fields above, each as wide
// as the column's span of it. Keys built in index order need no sort on
// the index bits, so the radix sort starts above them.
package keysort

import (
	"slices"
	"sync"
)

// MinPerPass is where the radix sort starts to beat slices.Sort, per
// pass: a column whose fields above the index take p digits is
// radix-sorted from p·MinPerPass keys up, by slices.Sort below. Each
// pass clears and sums 2048 buckets whatever the column's length, so the
// crossover moves with the passes. On a 2 vCPU Xeon the two tie at about
// 640 keys for three passes (a tile's corners: slices.Sort is 1.2×
// faster at 512, the radix 1.5× at 1024), and between 250 and 450 for
// two (a tile's y-events), so two passes take the safe end of that
// range; BenchmarkKeySort measures both.
const MinPerPass = 213

// digitBits is the radix sort's digit: 2048 buckets, so a tile's corner
// (about 33 bits) takes three passes and a tile's y-events two.
const digitBits = 11

// Scratch is one sort's working memory, pooled so that a warm caller
// allocates nothing to sort: the key column, the radix sort's buckets,
// and its second column, made by the first radix sort that needs it.
// Most sorts (nearly every sweep of the scorecard) are below the cutoff
// and never make it.
type Scratch struct {
	a, b  []uint64
	count [1 << digitBits]int
}

var pool = sync.Pool{New: func() any { return new(Scratch) }}

// Get takes a Scratch from the pool; Put gives it back.
func Get() *Scratch { return pool.Get().(*Scratch) }

// Put returns s to the pool. Nothing Keys or Sort returned may be used
// after it.
func Put(s *Scratch) { pool.Put(s) }

// Keys returns a column of n keys for the caller to fill.
func (s *Scratch) Keys(n int) []uint64 {
	if cap(s.a) < n {
		s.a = make([]uint64, n)
	}
	return s.a[:n]
}

// Sort sorts keys, the column Keys returned, by their bits lo..top-1 and
// returns the column that holds the result: keys or the second column
// of s. The low lo bits must rise with the index, as a record's index
// does, and no key may have a bit at or above top; then the result is
// the order slices.Sort gives the whole keys. From MinPerPass keys per
// pass up it is an LSD radix sort, stable in every pass, below it
// slices.Sort.
func (s *Scratch) Sort(keys []uint64, lo, top uint) []uint64 {
	if passes := (top - lo + digitBits - 1) / digitBits; len(keys) < int(passes)*MinPerPass {
		slices.Sort(keys)
		return keys
	}
	return s.radix(keys, lo, top)
}

func (s *Scratch) radix(keys []uint64, lo, top uint) []uint64 {
	const mask = 1<<digitBits - 1
	if cap(s.b) < len(keys) {
		s.b = make([]uint64, len(keys))
	}
	tmp, c := s.b[:len(keys)], &s.count
	for shift := lo; shift < top; shift += digitBits {
		clear(c[:])
		for _, k := range keys {
			c[k>>shift&mask]++
		}
		sum := 0
		for d, v := range c {
			c[d], sum = sum, sum+v
		}
		for _, k := range keys {
			d := k >> shift & mask
			tmp[c[d]] = k
			c[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Permute moves xs, in place, into the order of keys, whose low idxBits
// name the slot each record comes from. It follows every cycle of the
// permutation once, rewriting each visited key's index to its own slot:
// a key that names itself is a record already in place.
func Permute[T any](xs []T, keys []uint64, idxBits uint) {
	mask := uint64(1)<<idxBits - 1
	for i := range xs {
		if keys[i]&mask == uint64(i) {
			continue
		}
		tmp, j := xs[i], i
		for {
			k := int(keys[j] & mask)
			keys[j] = keys[j]&^mask | uint64(j)
			if k == i {
				xs[j] = tmp
				break
			}
			xs[j] = xs[k]
			j = k
		}
	}
}
