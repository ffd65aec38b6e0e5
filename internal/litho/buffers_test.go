package litho

import (
	"context"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// retained reports what the list holds, for the bound checks below.
func (l *bufList) retained() (count, floats int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.free {
		floats += cap(b)
	}
	return len(l.free), floats
}

// The free list is bounded by construction: whatever is put, it holds
// at most max buffers, and on overflow it is the largest that stay.
func TestBufListBound(t *testing.T) {
	l := bufList{max: 4}
	for i := 0; i < 100; i++ {
		l.put(make([]float64, 1+(i*37)%100)) // sizes 1..100, each once
	}
	count, floats := l.retained()
	if count != 4 || floats != 100+99+98+97 {
		t.Fatalf("after 100 mixed puts: %d buffers, %d floats; want the 4 largest (394 floats)", count, floats)
	}
	// Draining returns each retained buffer once and nothing else.
	for i := 0; i < 4; i++ {
		if _, ok := l.get(1); !ok {
			t.Fatalf("get %d of 4 missed", i)
		}
	}
	if _, ok := l.get(1); ok {
		t.Fatal("a fifth get was served from a 4-buffer list")
	}
}

// Best fit, not first fit: a small request takes the smallest buffer
// that serves it, so a raster-sized buffer put earlier is still there
// for the next raster-sized request instead of riding along under a
// one-float slice.
func TestBufListBestFit(t *testing.T) {
	l := bufList{max: 4}
	l.put(make([]float64, 1<<20))
	l.put(make([]float64, 8))
	small, ok := l.get(1)
	if !ok || cap(small) != 8 {
		t.Fatalf("get(1) returned cap %d (ok=%v), want the 8-float buffer", cap(small), ok)
	}
	big, ok := l.get(1 << 19)
	if !ok || cap(big) != 1<<20 {
		t.Fatalf("get(1<<19) returned cap %d (ok=%v), want the 1<<20 buffer", cap(big), ok)
	}
	if _, ok := l.get(9); ok {
		t.Fatal("empty list served a request")
	}
	// A retained buffer that is too small is left alone, not dropped.
	l.put(small)
	if _, ok := l.get(9); ok {
		t.Fatal("an 8-float buffer served a 9-float request")
	}
	if count, _ := l.retained(); count != 1 {
		t.Fatalf("a missed get changed the list: %d buffers retained, want 1", count)
	}
}

// A full 12 um scan window used to allocate ~140 MB (thirteen 6.76 MB
// []bool bitmaps and an unpooled 54 MB intensity grid). With packed
// bitmaps and the amplitude thresholded straight from the pooled
// buffer, steady state is a handful of sub-megabyte bitmaps.
func TestScanWindowSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates full scan windows")
	}
	tt := tech.N45()
	win := geom.R(0, 0, ScanTileNM, ScanTileNM)
	var mask []geom.Rect
	for x := int64(100); x+70 < ScanTileNM; x += 700 {
		mask = append(mask, geom.R(x, 100, x+70, ScanTileNM-100))
	}
	scan := func() {
		if _, err := ScanWindowCtx(context.Background(), mask, win, tt, tech.Metal1, ScanOpts{Cond: Nominal}); err != nil {
			t.Fatal(err)
		}
	}
	scan() // warm-up: the amplitude buffer enters the free list
	const calls = 3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		scan()
	}
	runtime.ReadMemStats(&m1)
	perCall := float64(m1.TotalAlloc-m0.TotalAlloc) / calls / (1 << 20)
	t.Logf("steady-state ScanWindowCtx: %.1f MB allocated per full window", perCall)
	if perCall >= 16 {
		t.Fatalf("steady-state ScanWindowCtx allocates %.1f MB per window, want < 16", perCall)
	}
}

// drain empties the free list.
func (l *bufList) drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = nil
}

// What a window can make a node allocate is a band, a bitmap and a
// mask's worth of spans, not its padded grid: a sparse 4096 x 4096 px
// window — a quarter of the pixels the tile wire admits — is 134 MB of
// float64 as a grid, and is rendered here from an empty free list in
// under 16 MB. And a band is bounded in bytes, not in rows: a window
// 2^17 px wide and 201 tall also passes the wire's pixel cap, 128 of
// its rows would be 134 MB, and it renders in the same 16.
func TestWindowMemoryIsBandBounded(t *testing.T) {
	o := tech.N45().Optics
	px := int64(o.GridNM)
	for _, tc := range []struct {
		name string
		w, h int
		mask []geom.Rect
	}{
		{"square", 4096, 4096, []geom.Rect{geom.R(1000, 1000, 1090, 4096*px-1000), geom.R(5000, 9000, 4096*px-3000, 9090)}},
		{"wide and short", 1 << 17, 201, []geom.Rect{geom.R(1000, 100, 1090, 900), geom.R(5000, 400, (1<<17)*px-3000, 490)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			window := geom.R(0, 0, int64(tc.w)*px, int64(tc.h)*px)
			bufFree.drain()
			t.Cleanup(bufFree.drain) // a band this wide is no use to the tests that follow

			sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
			metrics.Read(sample)
			before := sample[0].Value.Uint64()
			printed, err := simulatePrinted(context.Background(), tc.mask, window, o, Nominal)
			metrics.Read(sample)
			if err != nil {
				t.Fatal(err)
			}
			if printed.W != tc.w || printed.H != tc.h || printed.Count() == 0 {
				t.Fatalf("printed %dx%d with %d bits set, want a %dx%d bitmap of two lines", printed.W, printed.H, printed.Count(), tc.w, tc.h)
			}
			mb := float64(sample[0].Value.Uint64()-before) / (1 << 20)
			t.Logf("a %dx%d px window allocated %.1f MB", tc.w, tc.h, mb)
			if mb >= 16 {
				t.Errorf("a %dx%d px window allocated %.1f MB, want < 16", tc.w, tc.h, mb)
			}
			if _, floats := bufFree.retained(); floats > bandBudget {
				t.Errorf("the band it returned holds %d amplitudes, over the %d budget", floats, bandBudget)
			}
		})
	}
}
