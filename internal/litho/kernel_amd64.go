package litho

// haveAVX is whether this CPU and OS run 256-bit AVX: CPUID.1:ECX
// reports AVX (bit 28) and OSXSAVE (bit 27), and XCR0 says the OS saves
// the XMM and YMM state (bits 1 and 2). Only AVX1 is asked for: the
// routines use no AVX2 or FMA instruction.
var haveAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}()

// Implemented in kernel_amd64.s.

func cpuid1ECX() uint32
func xgetbv0() uint32

//go:noescape
func axpyAVX(c float64, x, y []float64)

//go:noescape
func squareAVX(dst, src []float64)

//go:noescape
func threshold64AVX(a *[64]float64, dose, thr float64) uint64
