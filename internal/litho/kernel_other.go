//go:build !amd64

package litho

// No assembly in this build: the Go loops of kernel.go are the only arm,
// and simd stays false, so nothing below is reached.
const haveAVX = false

func axpyAVX(c float64, x, y []float64) { panic("litho: no assembly kernel in this build") }

func squareAVX(dst, src []float64) { panic("litho: no assembly kernel in this build") }

func threshold64AVX(a *[64]float64, dose, thr float64) uint64 {
	panic("litho: no assembly kernel in this build")
}
