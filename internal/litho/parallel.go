package litho

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Row-parallel execution and buffer recycling for the simulation
// kernel. The hot path (Gaussian blur passes over block-scale grids)
// is embarrassingly parallel across rows; the worker pool follows the
// internal/harness sizing conventions: bounded by GOMAXPROCS, never
// more workers than work items, and sequential when parallelism
// cannot pay for itself. The pool goroutines are started once and
// reused so the OPC and Monte Carlo inner loops do not pay a spawn
// (or closure churn) per blur pass.

// parMinPixels is the grid size below which row-parallel dispatch is
// not worth the handoff; small tiles run inline.
const parMinPixels = 16 * 1024

// rowChunk is the number of rows a worker claims at a time. It doubles
// as the cancellation granularity of the sequential path: coarse
// enough to cost nothing, fine enough that a blur over a full tile
// yields within a few milliseconds of cancellation.
const rowChunk = 32

// rowJob is one parallel region: workers atomically claim rowChunk-row
// slices of [0, h) until exhausted.
type rowJob struct {
	fn   func(j0, j1 int)
	ctx  context.Context
	h    int
	next atomic.Int64
	wg   sync.WaitGroup
}

func (j *rowJob) run() {
	for j.ctx.Err() == nil {
		j0 := (int(j.next.Add(1)) - 1) * rowChunk
		if j0 >= j.h {
			break
		}
		j1 := j0 + rowChunk
		if j1 > j.h {
			j1 = j.h
		}
		j.fn(j0, j1)
	}
	j.wg.Done()
}

var (
	poolOnce sync.Once
	poolCh   chan *rowJob
	jobPool  = sync.Pool{New: func() any { return new(rowJob) }}
)

func startPool() {
	n := runtime.GOMAXPROCS(0)
	poolCh = make(chan *rowJob, n)
	for i := 0; i < n; i++ {
		go func() {
			for j := range poolCh {
				j.run()
			}
		}()
	}
}

// rowParallel runs fn over disjoint row ranges [j0, j1) covering
// [0, h), in parallel when the grid is large enough, checking ctx
// between chunks. fn must only touch rows in its range. The calling
// goroutine participates as a worker, so progress never depends on
// pool availability.
func rowParallel(ctx context.Context, h, w int, fn func(j0, j1 int)) error {
	workers := runtime.GOMAXPROCS(0)
	nchunks := (h + rowChunk - 1) / rowChunk
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 || h*w < parMinPixels {
		cRowsInline.Add(int64(h))
		for j0 := 0; j0 < h; j0 += rowChunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			j1 := j0 + rowChunk
			if j1 > h {
				j1 = h
			}
			fn(j0, j1)
		}
		return nil
	}
	cRowsParallel.Add(int64(h))
	poolOnce.Do(startPool)
	job := jobPool.Get().(*rowJob)
	job.fn, job.ctx, job.h = fn, ctx, h
	job.next.Store(0)
	job.wg.Add(workers)
	for i := 0; i < workers-1; i++ {
		poolCh <- job
	}
	job.run()
	job.wg.Wait()
	job.fn, job.ctx = nil, nil
	jobPool.Put(job)
	return ctx.Err()
}

// bufFree recycles the float64 backing arrays of the raster-sized
// intermediate grids (amplitude accumulator, padded raster, dense blur
// scratch) that every simulation call needs. It is a bounded free
// list rather than a sync.Pool because what it retains must not depend
// on how often the collector runs: a sync.Pool is emptied by every GC,
// so it only stayed small while the hotspot detector's garbage forced
// dozens of collections a second. Without that garbage a pool keeps
// every buffer of every size it was ever handed, and the GC goal
// doubles on top of them.
//
// It retains one buffer per P: a P runs one simulation at a time, and
// the sparse blur — every production window — needs exactly one
// raster-sized buffer, the amplitude. The dense blur's raster and
// scratch are allocated when the list runs out, and whichever buffers
// are largest are kept.
var bufFree = bufList{max: runtime.GOMAXPROCS(0)}

// bufList is a mutex-guarded free list of at most max buffers.
type bufList struct {
	mu   sync.Mutex
	max  int
	free [][]float64
}

// get removes and returns the smallest retained buffer whose capacity
// is at least n (best fit, so a small request never takes a
// raster-sized buffer away from the next raster-sized request).
func (l *bufList) get(n int) (_ []float64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i, b := range l.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(l.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	b := l.free[best]
	last := len(l.free) - 1
	l.free[best], l.free[last] = l.free[last], nil
	l.free = l.free[:last]
	return b, true
}

// put retains b. When the list is full the smallest buffer — b itself
// or a retained one — is dropped: large buffers are the ones worth
// keeping, small ones are cheap to make again.
func (l *bufList) put(b []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.max {
		l.free = append(l.free, b)
		return
	}
	small := -1
	for i, f := range l.free {
		if cap(f) < cap(b) && (small < 0 || cap(f) < cap(l.free[small])) {
			small = i
		}
	}
	if small >= 0 {
		l.free[small] = b
	}
}

// getBuf returns a zeroed []float64 of length n, reusing a retained
// backing array when one is large enough. The caller owns the buffer
// until it calls putBuf.
func getBuf(n int) []float64 {
	if b, ok := bufFree.get(n); ok {
		b = b[:n]
		clear(b)
		cPoolReuse.Inc()
		return b
	}
	cPoolAlloc.Inc()
	return make([]float64, n)
}

// putBuf returns a buffer to the free list. The caller must not retain
// any reference to it: retained arrays are handed to later
// simulations, possibly on other goroutines.
func putBuf(b []float64) {
	bufFree.put(b)
}
