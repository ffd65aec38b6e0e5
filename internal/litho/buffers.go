package litho

import (
	"runtime"
	"sync"
)

// bufFree recycles the float64 backing arrays of the simulator's
// large scratch: the band of amplitude rows every simulation call
// accumulates into (raster.go), GaussianBlur's grid-sized
// intermediate. It is a bounded free list rather than a sync.Pool
// because what it retains must not depend on how often the collector
// runs: a sync.Pool is emptied by every GC, so it only stayed small
// while the hotspot detector's garbage forced dozens of collections a
// second. Without that garbage a pool keeps every buffer of every size
// it was ever handed, and the GC goal doubles on top of them.
//
// It retains one buffer per P: a P runs one simulation at a time, and
// a simulation holds exactly one pooled buffer, its band. Anything
// more is allocated when the list runs out, and whichever buffers are
// largest are kept. A band is only a few megabytes, but a fresh one
// per render would still be allocated, faulted in and collected once
// per window (about 25 MB of a 9-window chip_litho pass).
var bufFree = bufList{max: runtime.GOMAXPROCS(0)}

// bufList is a mutex-guarded free list of at most max buffers.
type bufList struct {
	mu   sync.Mutex
	max  int
	free [][]float64
}

// get removes and returns the smallest retained buffer whose capacity
// is at least n (best fit, so a small request never takes a large
// buffer away from the next large request).
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
