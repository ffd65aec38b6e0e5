package litho

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

// withObs enables the default metrics registry for one test and
// restores the prior state afterwards. Counter values persist across
// tests, so assertions below work on snapshot deltas, never absolutes.
func withObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

// kernelCounts is every kernel instrument benchmark/layers.go and the
// verify skill read, snapshotted together so a test can assert exact
// deltas: a renamed, dropped or double-fired counter fails here rather
// than as a silently-zero layer metric.
type kernelCounts struct {
	passes, sparse, hit, miss, reuse, alloc, simulated int64
}

func snapKernel() kernelCounts {
	s := obs.Default().Snapshot()
	return kernelCounts{
		passes:    s.Counters["litho.blur.passes"],
		sparse:    s.Counters["litho.blur.sparse"],
		hit:       s.Counters["litho.raster.cache.hit"],
		miss:      s.Counters["litho.raster.cache.miss"],
		reuse:     s.Counters["litho.pool.reuse"],
		alloc:     s.Counters["litho.pool.alloc"],
		simulated: s.Histograms["litho.simulate.ns"].Count,
	}
}

func (a kernelCounts) minus(b kernelCounts) kernelCounts {
	return kernelCounts{a.passes - b.passes, a.sparse - b.sparse, a.hit - b.hit, a.miss - b.miss,
		a.reuse - b.reuse, a.alloc - b.alloc, a.simulated - b.simulated}
}

// One scan window is one convolution stack: a cache miss with one
// simulate.ns observation, one sparse pass per kernel sigma, and a
// single amplitude buffer, which the free list serves once a first
// window has been through.
func TestScanWindowKernelCounters(t *testing.T) {
	withObs(t)
	tt := tech.N45()
	mask := []geom.Rect{geom.R(0, 0, 70, 2000), geom.R(140, 0, 210, 2000)}
	win := geom.R(-200, 0, 400, 2000)
	scan := func() {
		if _, err := ScanWindowCtx(context.Background(), mask, win, tt, tech.Metal1, ScanOpts{Cond: Nominal}); err != nil {
			t.Fatal(err)
		}
	}
	scan() // the amplitude buffer enters the free list
	before := snapKernel()
	scan()
	sigmas := int64(len(tt.Optics.Sigmas))
	want := kernelCounts{passes: sigmas, sparse: sigmas, miss: 1, reuse: 1, simulated: 1}
	if got := snapKernel().minus(before); got != want {
		t.Errorf("one scan window moved the kernel counters by %+v, want %+v", got, want)
	}
	// The gauge names the arm the last render ran: the one init chose,
	// and whichever a caller forces after it.
	for _, asm := range append(arms(), simd) {
		withArm(asm, scan)
		want := 0.0
		if asm {
			want = 1
		}
		if got := obs.Default().Snapshot().Gauges["litho.kernel.simd"]; got != want {
			t.Errorf("litho.kernel.simd = %v after a render with the assembly arm %v, want %v", got, asm, want)
		}
	}
}

// The acceptance criterion from the issue: a 9x5 focus-exposure
// matrix is 45 simulation requests of which exactly 9 (one per
// defocus) run the convolution stack; the other 36 are dose rescales
// served from the per-defocus intensity cache. Every pass of the 9
// stacks is sparse, every amplitude buffer is the one the previous
// stack returned, and each stack is one simulate.ns observation.
func TestFEMatrixCacheAccounting(t *testing.T) {
	withObs(t)
	tt := tech.N45()
	mask := []geom.Rect{geom.R(0, 0, 70, 3000)}
	window := geom.R(-300, 1200, 400, 1800)
	defocus := []float64{0, 20, 40, 60, 80, 100, 120, 140, 160}
	dose := []float64{0.92, 0.96, 1.0, 1.04, 1.08}
	matrix := func() []FEPoint {
		rm := NewRasterMask(mask, window, tt.Optics, defocus[len(defocus)-1])
		pts, err := rm.FEMatrix(context.Background(), 35, 1500, true, CDSpec{Target: 70, Tol: 0.10}, defocus, dose)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	matrix() // the amplitude buffer enters the free list
	before := snapKernel()
	if pts := matrix(); len(pts) != len(defocus)*len(dose) {
		t.Fatalf("matrix size = %d, want %d", len(pts), len(defocus)*len(dose))
	}
	stacks := int64(len(defocus))
	passes := stacks * int64(len(tt.Optics.Sigmas))
	want := kernelCounts{passes: passes, sparse: passes, hit: stacks * int64(len(dose)-1), miss: stacks,
		reuse: stacks, simulated: stacks}
	if got := snapKernel().minus(before); got != want {
		t.Errorf("a 9x5 FE matrix moved the kernel counters by %+v, want %+v", got, want)
	}
}

// gridCounts reads where the raster cache's misses took their grids
// from: NewGrid, or a grid their handle had retired.
func gridCounts() (fresh, reused int64) {
	s := obs.Default().Snapshot()
	return s.Counters["litho.raster.grid.new"], s.Counters["litho.raster.grid.reused"]
}

// An FE matrix renders the |defocus| it was not handed over one grid:
// a 13-defocus matrix on a fresh handle takes at most two grids from
// NewGrid, and a second matrix after Remask takes none. A |defocus| the
// caller cached before the matrix stays cached, its image intact.
func TestFEMatrixRendersOverOneGrid(t *testing.T) {
	withObs(t)
	ctx := context.Background()
	o := tech.N45().Optics
	window := geom.R(-450, 1200, 550, 1800)
	defocus := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	dose := []float64{0.92, 1.0, 1.08}
	spec := CDSpec{Target: 70, Tol: 0.10}
	bare := []geom.Rect{geom.R(0, 0, 70, 3000)}
	assisted := append(slices.Clone(bare), geom.R(-200, 0, -170, 3000), geom.R(240, 0, 270, 3000))
	matrix := func(rm *RasterMask) []FEPoint {
		t.Helper()
		pts, err := rm.FEMatrix(ctx, 35, 1500, true, spec, defocus, dose)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}

	rm := NewRasterMask(bare, window, o, 120)
	n0, r0 := gridCounts()
	matrix(rm)
	n1, r1 := gridCounts()
	if n1-n0 > 2 || (n1-n0)+(r1-r0) != int64(len(defocus)) {
		t.Errorf("a 13-defocus matrix on a fresh handle took %d new and %d reused grids, want at most 2 new and 13 in all", n1-n0, r1-r0)
	}

	rm.Remask(assisted)
	got := matrix(rm)
	n2, r2 := gridCounts()
	if n2 != n1 || r2-r1 != int64(len(defocus)) {
		t.Errorf("a matrix after Remask took %d new and %d reused grids, want 0 and 13", n2-n1, r2-r1)
	}
	if want := matrix(NewRasterMask(assisted, window, o, 120)); !reflect.DeepEqual(got, want) {
		t.Error("the matrix rendered over spent grids differs from a fresh handle's")
	}

	rm.Remask(bare)
	held, err := rm.Image(ctx, Condition{Defocus: 80, Dose: 1})
	if err != nil {
		t.Fatal(err)
	}
	heldData := slices.Clone(held.Data)
	matrix(rm)
	if !reflect.DeepEqual(held.Data, heldData) {
		t.Error("the matrix rendered over a |defocus| the caller had cached")
	}
	before := snapKernel()
	if _, err := rm.Image(ctx, Condition{Defocus: 80, Dose: 1}); err != nil {
		t.Fatal(err)
	}
	if moved := snapKernel().minus(before); moved.hit != 1 || moved.miss != 0 {
		t.Error("the matrix retired a |defocus| the caller had cached")
	}
}

// Concurrent Image calls on one shared mask must keep the
// hit/miss counters consistent: every request is accounted exactly
// once, and each distinct |defocus| computes exactly once no matter
// how many goroutines race for it. Run under -race via make tier1.
func TestConcurrentImageCounters(t *testing.T) {
	withObs(t)
	tt := tech.N45()
	mask := []geom.Rect{geom.R(0, 0, 70, 2000), geom.R(140, 0, 210, 2000)}
	window := geom.R(-200, 400, 400, 1600)
	defocus := []float64{0, 40, 80, 120}
	const goroutines = 8

	rm := NewRasterMask(mask, window, tt.Optics, 120)

	before := snapKernel()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range defocus {
				if _, err := rm.Image(context.Background(), Condition{Defocus: f, Dose: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	moved := snapKernel().minus(before)
	misses, hits := moved.miss, moved.hit
	if misses != int64(len(defocus)) {
		t.Errorf("misses = %d, want %d (each |defocus| computes once)", misses, len(defocus))
	}
	if total := hits + misses; total != goroutines*int64(len(defocus)) {
		t.Errorf("hits+misses = %d, want %d (every request accounted)", total, goroutines*len(defocus))
	}
}

// Occupancy is counted, not guessed: one narrow line down a wide window
// touches a few of the column groups each band offers and holds one
// printed word per row, and the counters say so — per band and per
// scan window, so a snapshot explains why one window costs a fifth of
// another. The line runs past both ends of the window, so every printed
// row but the first equals the one before it, and the detector is told.
func TestScanWindowOccupancyCounters(t *testing.T) {
	withObs(t)
	tt := tech.N45()
	win := geom.R(0, 0, 5000, 500)
	// Printed columns 140..154 of the padded scan window: inside one word.
	mask := []geom.Rect{geom.R(200, -2000, 270, 2500)}
	read := func() (touched, offered, walked, spanned, equal int64) {
		c := obs.Default().Snapshot().Counters
		return c["litho.band.groups.touched"], c["litho.band.groups.offered"],
			c["litho.hotspot.words.walked"], c["litho.hotspot.words.spanned"], c["litho.hotspot.rows.equal"]
	}
	t0, o0, w0, s0, e0 := read()
	if _, err := ScanWindowCtx(context.Background(), mask, win, tt, tech.Metal1, ScanOpts{Cond: Nominal}); err != nil {
		t.Fatal(err)
	}
	t1, o1, w1, s1, e1 := read()
	touched, offered, walked, spanned, equal := t1-t0, o1-o0, w1-w0, s1-s0, e1-e0

	sim := win.Bloat(ScanPadNM)
	w, h := gridDims(sim, tt.Optics.GridNM)
	rm := NewRasterMask(mask, sim, tt.Optics, 0)
	bands := int64((h + bandRows - 1) / bandRows)
	if want := bands * int64((rm.rW+63)/64); offered != want {
		t.Errorf("groups offered = %d, want %d (%d bands of a %d px padded row)", offered, want, bands, rm.rW)
	}
	// A 14 px line under a +-54 px kernel reaches two or three groups.
	if touched < 2*bands || touched > 3*bands {
		t.Errorf("groups touched = %d over %d bands, want 2-3 per band", touched, bands)
	}
	if want := int64((w+63)/64) * int64(h); spanned != want {
		t.Errorf("words spanned = %d, want %d", spanned, want)
	}
	if walked != int64(h) {
		t.Errorf("words walked = %d, want one per row (%d)", walked, h)
	}
	if equal != int64(h-1) {
		t.Errorf("rows equal = %d, want every row but the first (%d)", equal, h-1)
	}
}

// The detector runs in the render's sink: a recorded scan window is one
// litho.simulate.ns, one litho.hotspot.detect.ns and one
// litho.hotspot.scan.ns observation, and the detector's share is a
// share — clocked, so above zero, and under the window it ran in.
func TestScanWindowTimesTheDetectorsShare(t *testing.T) {
	withObs(t)
	tt := tech.N45()
	read := func() (sim, det, scan obs.HistSnapshot) {
		h := obs.Default().Snapshot().Histograms
		return h["litho.simulate.ns"], h["litho.hotspot.detect.ns"], h["litho.hotspot.scan.ns"]
	}
	s0, d0, w0 := read()
	if _, err := ScanWindowCtx(context.Background(), neckV(0, 0), geom.R(0, 0, 2000, 2000), tt, tech.Metal1, ScanOpts{Cond: Nominal}); err != nil {
		t.Fatal(err)
	}
	s1, d1, w1 := read()
	if s1.Count-s0.Count != 1 || d1.Count-d0.Count != 1 || w1.Count-w0.Count != 1 {
		t.Fatalf("observations: simulate %d, detect %d, scan %d; want one each",
			s1.Count-s0.Count, d1.Count-d0.Count, w1.Count-w0.Count)
	}
	if det, scan := d1.Sum-d0.Sum, w1.Sum-w0.Sum; !(det > 0 && det < scan) {
		t.Errorf("detect.ns = %g of a %g ns scan window, want a share of it", det, scan)
	}
}
