package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// The machines this benchmark runs on share their memory system with
// other tenants, and it shows: over six minutes on an otherwise idle box
// one chip_drc pass went from 0.95 s to 1.47 s and one chip_litho pass
// from 0.90 s to 1.51 s, CPU seconds rising with them, while a
// register-only loop slowed by 10% and a loop of random reads over 64 MB
// by 90%. A time that moves by half for minutes at a stretch cannot be
// held to a bound of a quarter. So every timed region is bracketed by two
// short reference loops, and its times are divided by how much slower
// than reference those ran. Over 40 runs taken while the memory loop ran
// at 1.3 to 4.7 times its reference, that brought the inter-quartile
// spread of the per-run wall medians from 16-28% down to 7-13%, and of
// the CPU medians from 13-18% down to 4-13%. It does not remove the
// drift: a workload is not the loops, and the heavier the contention the
// more the loops overstate it.
//
// The references are this box when quiet; another machine gets another
// constant factor, which no comparison made on one machine sees.
// memWeight is the share given to the memory loop: least-squares fits of
// pass time against the two readings put the five workloads between 0.24
// and 0.47, and 0.5 gave the smallest spreads overall.
const (
	cpuSteps  = 10_000_000
	memSteps  = 1_000_000
	memBytes  = 64 << 20
	cpuRefMS  = 22.1
	memRefMS  = 13.3
	memWeight = 0.5
)

// calibrator owns the buffer the memory loop reads. It is mapped, not
// allocated, so that it neither counts as heap nor moves the collector's
// pacing.
type calibrator struct {
	buf     []byte
	workers int
	sink    uint64
}

func newCalibrator(workers int) (*calibrator, error) {
	buf, err := syscall.Mmap(-1, 0, memBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map calibration buffer: %w", err)
	}
	for i := range buf {
		buf[i] = byte(i) // fault every page in now, not inside a timed loop
	}
	return &calibrator{buf: buf, workers: workers}, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// loop runs one reference loop on every worker at once, as the workloads
// run, and returns the wall time in milliseconds.
func (c *calibrator) loop(steps int, read bool) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, c.workers)
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, s := uint64(g)*7919+88172645463325252, uint64(0)
			for i := 0; i < steps; i++ {
				x = xorshift(x)
				if read {
					s += uint64(c.buf[x&(memBytes-1)])
				} else {
					s += x
				}
			}
			sums[g] = s
		}()
	}
	wg.Wait()
	for _, s := range sums {
		c.sink += s // keeps the loops from being optimised away
	}
	return time.Since(t0).Seconds() * 1e3
}

// reading is how many times slower than reference each loop runs right
// now; a nil calibrator reads 1 and 1.
type reading struct{ cpu, mem float64 }

func (c *calibrator) read() reading {
	if c == nil {
		return reading{1, 1}
	}
	return reading{c.loop(cpuSteps, false) / cpuRefMS, c.loop(memSteps, true) / memRefMS}
}

// around runs fn between two readings and returns their mean.
func (c *calibrator) around(fn func()) reading {
	a := c.read()
	fn()
	b := c.read()
	return reading{(a.cpu + b.cpu) / 2, (a.mem + b.mem) / 2}
}

// slowdown blends a reading into the one factor times are divided by.
func (r reading) slowdown() float64 { return (1-memWeight)*r.cpu + memWeight*r.mem }
