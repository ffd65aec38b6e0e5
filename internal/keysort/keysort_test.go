package keysort

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

var sink []uint64

// column draws n keys as a caller packs them: fields of width bits above
// the index, in the low lo bits, in index order.
func column(rng *rand.Rand, keys []uint64, lo, width uint) {
	for i := range keys {
		keys[i] = rng.Uint64()>>(64-width)<<lo | uint64(i)
	}
}

// FuzzKeySort holds Sort to slices.Sort of the same keys, on both sides
// of the radix cutoff for one to three passes and for fields from none
// to all 64 bits, and Permute to a gather: record j of the result is the
// record key j names. A narrow field makes most keys tie above the
// index, a wide one none; lo past the index's own width leaves bits the
// radix sort must not read as data.
func FuzzKeySort(f *testing.F) {
	sizes := []uint16{0, 1, 2100}
	for p := uint16(1); p <= 3; p++ {
		sizes = append(sizes, p*MinPerPass-1, p*MinPerPass, p*MinPerPass+1)
	}
	for _, n := range sizes {
		for _, w := range [][2]uint8{{0, 0}, {0, 3}, {10, 11}, {11, 15}, {12, 22}, {12, 33}, {20, 44}, {12, 52}} {
			f.Add(int64(n), n, w[0], w[1])
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, lo, width uint8) {
		rng := rand.New(rand.NewSource(seed))
		n %= 2200
		idxBits := uint(0)
		if n > 1 {
			idxBits = uint(bits.Len(uint(n - 1)))
		}
		l := max(idxBits, uint(lo)%65)
		w := uint(width) % (65 - l)

		s := Get()
		defer Put(s)
		keys := s.Keys(int(n))
		column(rng, keys, l, w)
		want := slices.Clone(keys)
		slices.Sort(want)
		got := s.Sort(keys, l, l+w)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d lo=%d top=%d: Sort differs from slices.Sort", n, l, l+w)
		}

		recs := make([]int32, n)
		for i := range recs {
			recs[i] = rng.Int31()
		}
		mask := uint64(1)<<l - 1
		gathered := make([]int32, n)
		for j, k := range got {
			gathered[j] = recs[k&mask]
		}
		Permute(recs, got, l)
		if !slices.Equal(recs, gathered) {
			t.Fatalf("n=%d lo=%d: Permute differs from the gather", n, l)
		}
		for j, k := range got {
			if k&mask != uint64(j) || k&^mask != want[j]&^mask {
				t.Fatalf("n=%d lo=%d: key %d is %#x after Permute, want its fields with index %d", n, l, j, k, j)
			}
		}
	})
}

// Scratch comes from a pool that the sweep, the boundary extraction and
// canonicalize take from on every worker at once. Under -race this holds
// that a Scratch is never shared: goroutines radix-sort and permute
// their own columns, each past the cutoff, and check the order.
func TestSortConcurrent(t *testing.T) {
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				n := 3*MinPerPass + rng.Intn(1000)
				idxBits := uint(bits.Len(uint(n - 1)))
				s := Get()
				keys := s.Keys(n)
				column(rng, keys, idxBits, 33)
				recs := make([]uint64, n)
				copy(recs, keys)
				keys = s.Sort(keys, idxBits, idxBits+33)
				Permute(recs, keys, idxBits)
				Put(s)
				if !slices.IsSorted(recs) {
					done <- fmt.Errorf("goroutine %d: a column of %d keys is out of order", g, n)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkKeySort times the radix sort against slices.Sort on the same
// columns, at 64 to 4096 keys, for the two widths keysort's callers
// pack most: 2-pass keys (a tile's y-events, 15 bits of y) and 3-pass
// keys (a tile's corners, 3 bits of layer and 15 each of x and y). Each
// iteration copies the unsorted column back first, in both arms. Where
// /radix overtakes /slices, over the passes, is MinPerPass.
func BenchmarkKeySort(b *testing.B) {
	for _, width := range []struct {
		name string
		bits uint
	}{{"2-pass", 15}, {"3-pass", 33}} {
		for _, n := range []int{64, 256, 384, 512, 640, 768, 1024, 4096} {
			rng := rand.New(rand.NewSource(int64(n)))
			idxBits := uint(bits.Len(uint(n - 1)))
			src := make([]uint64, n)
			column(rng, src, idxBits, width.bits)
			for _, arm := range []struct {
				name string
				sort func(s *Scratch, keys []uint64) []uint64
			}{
				{"radix", func(s *Scratch, keys []uint64) []uint64 { return s.radix(keys, idxBits, idxBits+width.bits) }},
				{"slices", func(_ *Scratch, keys []uint64) []uint64 { slices.Sort(keys); return keys }},
			} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", width.name, n, arm.name), func(b *testing.B) {
					s := Get()
					defer Put(s)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						keys := s.Keys(n)
						copy(keys, src)
						sink = arm.sort(s, keys)
					}
				})
			}
		}
	}
}
