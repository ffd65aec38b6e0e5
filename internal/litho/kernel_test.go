package litho

import (
	"bufio"
	"context"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// arms lists the kernel arms this build and CPU can run: the Go loops
// always, the assembly where it is live.
func arms() []bool {
	if haveAVX {
		return []bool{false, true}
	}
	return []bool{false}
}

// withArm runs f with the assembly arm on (asm) or off, then restores
// the arm package init chose. No test of this package runs in parallel,
// so the flip is seen by f alone.
func withArm(asm bool, f func()) {
	defer func(prev bool) { simd = prev }(simd)
	simd = asm
	f()
}

// checkArmsAgree renders the mask under every kernel arm this build
// runs and requires the intensity image and the scan's printed bitmap
// of each to be the Go loops', bit for bit.
func checkArmsAgree(t *testing.T, mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) {
	t.Helper()
	ctx := context.Background()
	var ref *Image
	var refBits *Bitmap
	for _, asm := range arms() {
		withArm(asm, func() {
			img, err := Simulate(ctx, mask, window, opt, cond)
			if err != nil {
				t.Fatal(err)
			}
			bits, err := simulatePrinted(ctx, mask, window, opt, cond)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref, refBits = img, bits
				return
			}
			for i, v := range img.Data {
				if math.Float64bits(v) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("%+v: pixel (%d,%d) = %v with the assembly kernel, %v with the Go loops",
						cond, i%img.W, i/img.W, v, ref.Data[i])
				}
			}
			if !reflect.DeepEqual(bits, refBits) {
				t.Errorf("%+v: printed bitmap with the assembly kernel differs from the Go loops'", cond)
			}
		})
	}
}

// sameFloat is bit equality, with any NaN equal to any NaN: which
// payload a NaN carries depends on operand order, which neither arm
// promises.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// kernelValue draws an amplitude or an accumulator entry: mostly
// ordinary magnitudes, but ±0, subnormals, ±Inf, NaN, values whose
// square overflows or underflows, and raw bit patterns too.
func kernelValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal (or +0)
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	case 4:
		return math.NaN()
	case 5:
		return math.Ldexp(rng.Float64(), 520-rng.Intn(1100)) // squares past both ends
	case 6:
		return math.Float64frombits(rng.Uint64())
	default:
		return rng.NormFloat64()
	}
}

// kernelScalars are the c, dose and thr a fuzz input can pin instead of
// its own: signed zeros, subnormals, infinities, NaN, and thresholds
// at and below zero.
var kernelScalars = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 0.3,
}

// FuzzKernelLoops holds each assembly routine to its Go loop bit for bit
// (NaN as NaN-ness): axpy and square over every length 0–257 at every
// start offset mod 4 — so every 4- and 1-wide tail and every
// alignment within a 32-byte line — writing nothing outside the slice;
// threshold64 over a full word at the same offsets. pick packs three
// 4-bit indices into kernelScalars, one each for c, dose and thr; an
// index past the table keeps the fuzzed value. 10 s in make fuzz-smoke.
func FuzzKernelLoops(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), 0.7, 1.0, 0.3, uint16(0xfff))
	f.Add(int64(2), uint16(1), uint8(1), -1.5, 0.9, 0.3, uint16(0xfff))
	f.Add(int64(3), uint16(257), uint8(3), 0.2718281828, 1.04, 1e-9, uint16(0xfff))
	f.Add(int64(4), uint16(64), uint8(2), -1.37, 1.0, 0.0, uint16(0x0ff)) // thr = +0
	f.Add(int64(5), uint16(19), uint8(0), 0.1, 1.0, 0.0, uint16(0x8ff))   // thr = -1
	f.Add(int64(6), uint16(33), uint8(1), 0.0, 0.0, 0.0, uint16(0x110))   // c = +0, dose = -0, thr = -0
	f.Add(int64(7), uint16(130), uint8(2), 0.0, 0.0, 0.0, uint16(0x432))  // subnormal c, -subnormal dose, +Inf thr
	f.Add(int64(8), uint16(63), uint8(3), 0.0, 0.0, 0.0, uint16(0x654))   // +Inf c, -Inf dose, NaN thr
	f.Add(int64(9), uint16(200), uint8(0), 0.0, 0.0, 0.0, uint16(0x546))  // NaN c, +Inf dose, -Inf thr
	f.Fuzz(func(t *testing.T, seed int64, n uint16, off uint8, c, dose, thr float64, pick uint16) {
		if !haveAVX {
			t.Skip("no assembly arm in this build or on this CPU")
		}
		over := func(v float64, k uint16) float64 {
			if k &= 15; int(k) < len(kernelScalars) {
				return kernelScalars[k]
			}
			return v
		}
		c, dose, thr = over(c, pick), over(dose, pick>>4), over(thr, pick>>8)
		rng := rand.New(rand.NewSource(seed))
		ln, at := int(n%258), int(off%4)
		fill := func(k int) []float64 {
			s := make([]float64, k)
			for i := range s {
				s[i] = kernelValue(rng)
			}
			return s
		}
		// Each slice starts at element at of a backing array with four
		// guard entries after it.
		x, y := fill(at+ln+4), fill(at+ln+4)
		check := func(name string, got, want []float64) {
			t.Helper()
			for i := range want {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("%s, len %d at offset %d, c %v: element %d = %v (%#x) in assembly, %v (%#x) in Go",
						name, ln, at, c, i-at, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}

		yGo, yAsm := append([]float64(nil), y...), append([]float64(nil), y...)
		axpyGo(c, x[at:at+ln], yGo[at:])
		axpyAVX(c, x[at:at+ln], yAsm[at:at+ln])
		check("axpy", yAsm, yGo)

		dGo, dAsm := append([]float64(nil), y...), append([]float64(nil), y...)
		squareGo(dGo[at:], x[at:at+ln])
		squareAVX(dAsm[at:at+ln], x[at:at+ln])
		check("square", dAsm, dGo)

		a := fill(at + 64)[at:]
		if got, want := threshold64AVX((*[64]float64)(a), dose, thr), thresholdWordGo(a, dose, thr); got != want {
			t.Fatalf("threshold64 at offset %d, dose %v, thr %v: %#016x in assembly, %#016x in Go", at, dose, thr, got, want)
		}
	})
}

// A production stack over lines wall to wall, a line-end gap and a jog:
// every row of every band goes through axpy, square and full threshold
// words, and the image and the printed bits are the Go loops' under
// either arm, at focus and off it, at unit dose and not.
func TestKernelArmsAgreeOnDenseWindow(t *testing.T) {
	var mask []geom.Rect
	for x := int64(0); x < 2400; x += 140 {
		mask = append(mask, geom.R(x, -300, x+70, 1100), geom.R(x, 1180, x+70, 2700))
	}
	mask = append(mask, geom.R(700, 1100, 910, 1180))
	window := geom.R(100, 0, 2300, 2400)
	for _, cond := range []Condition{Nominal, {Defocus: 80, Dose: 0.94}} {
		checkArmsAgree(t, mask, window, tech.N45().Optics, cond)
	}
}

// The assembly's contract is the Go loop's rounding: a fused
// multiply-add rounds once where the loop rounds twice, so it may not
// appear in the file whatever the CPU offers.
func TestKernelAssemblyHasNoFMA(t *testing.T) {
	f, err := os.Open("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fma := regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)`)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if fma.MatchString(sc.Text()) {
			t.Errorf("kernel_amd64.s:%d: fused multiply-add: %s", line, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
