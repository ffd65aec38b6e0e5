package litho

// The kernel's three float loops: the band blur's rank-1 update
// dst[j][i] += (weight·ys[j])·x[i] (sparseBlurAcc, one call per y-band
// cluster), the unit-intensity square (unitIntensity's sink) and the
// threshold word (printed's sink). Each has two arms. The Go loop below
// is the reference; the assembly in kernel_amd64.s performs exactly its
// float operations, in the same order, four lanes at a time — a
// multiply rounded, then an add or a compare, never a fused
// multiply-add, which would round once where the loop rounds twice and
// move the last ulp every digest rests on. FuzzKernelLoops holds each
// routine to its loop bit for bit. The Go arm is what runs off amd64
// and on a CPU without AVX.

// simd reports whether the assembly arm runs: set once at package init
// from CPUID and XCR0 (kernel_amd64.go), false in every other build.
// Tests flip it to run both arms over one input.
var simd = haveAVX

// rank1 adds (weight·ys[j])·x[i] to dst[j*stride+i] for every j of ys
// and every i of x: row j of a cluster's footprint receives its column
// sum x scaled by the row's profile value. A row whose product
// weight·ys[j] is zero (of either sign) is skipped, not added: adding
// ±0·x is not quite a no-op (it turns -0 into +0 and an infinite x into
// NaN), and the skip is what every digest was computed with. Rows are
// stride apart, stride >= len(x), and must not overlap x or ys.
func rank1(weight float64, ys, x, dst []float64, stride int) {
	if len(ys) == 0 || len(x) == 0 {
		return
	}
	// The assembly checks no bound: these two keep it inside dst.
	if stride < len(x) {
		panic("litho: rank1 rows overlap")
	}
	_ = dst[(len(ys)-1)*stride+len(x)-1]
	if simd {
		rank1AVX(weight, ys, x, dst, stride)
		return
	}
	rank1Go(weight, ys, x, dst, stride)
}

func rank1Go(weight float64, ys, x, dst []float64, stride int) {
	for j, yv := range ys {
		c := weight * yv
		if c == 0 {
			continue
		}
		row := dst[j*stride : j*stride+len(x)]
		for i, xv := range x {
			// The conversion rounds the product: without it the
			// compiler may fuse the multiply and the add (on arm64 it
			// emits FMADDD), and the Go arm would round differently
			// from the assembly's.
			row[i] += float64(c * xv)
		}
	}
}

// square sets dst[i] = src[i]² for every index of src. dst must be at
// least as long as src.
func square(dst, src []float64) {
	if simd {
		squareAVX(dst[:len(src)], src)
		return
	}
	squareGo(dst, src)
}

func squareGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v * v
	}
}

// thresholdWord packs v*v*dose >= thr of up to 64 amplitudes into a
// word, a[0] at bit 0. (Multiplying by a dose of 1 is exact, so there
// is no unit-dose branch.) A full word takes the assembly when it is
// live; a row's partial tail word is always the Go loop's.
func thresholdWord(a []float64, dose, thr float64) uint64 {
	if simd && len(a) == 64 {
		return threshold64AVX((*[64]float64)(a), dose, thr)
	}
	return thresholdWordGo(a, dose, thr)
}

// thresholdWordGo builds the word in a register four pixels at a time,
// each nibble entering at the top as the rest moves down: written with
// a bit index per pixel, the loop spends more on the variable shift and
// its >= 64 guard than on the arithmetic. a must not be empty.
func thresholdWordGo(a []float64, dose, thr float64) uint64 {
	var word uint64
	n := len(a)
	for ; len(a) >= 4; a = a[4:] {
		var nib uint64
		if a[0]*a[0]*dose >= thr {
			nib = 1
		}
		if a[1]*a[1]*dose >= thr {
			nib |= 2
		}
		if a[2]*a[2]*dose >= thr {
			nib |= 4
		}
		if a[3]*a[3]*dose >= thr {
			nib |= 8
		}
		word = word>>4 | nib<<60
	}
	for _, v := range a {
		word >>= 1
		if v*v*dose >= thr {
			word |= 1 << 63
		}
	}
	return word >> (64 - uint(n)) // n >= 1
}
