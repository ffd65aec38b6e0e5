package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// passCost is what one timed region cost the process. WallS and CPUS
// are as measured; Slowdown is how much slower than reference the
// machine ran around the region (see calib.go), and the reported times
// are the measured ones divided by it.
type passCost struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	AllocGB    float64 `json:"alloc_gb"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	Slowdown   float64 `json:"slowdown"`
	CPUSlow    float64 `json:"cpu_slow"`
	MemSlow    float64 `json:"mem_slow"`
}

// meter measures one timed region: wall time, process CPU time,
// bytes allocated, and the peak of the live heap sampled every 10 ms
// without stopping the world. "Live heap" is the bytes in heap objects,
// garbage awaiting collection included: it is the memory the process
// holds, and on this code it is steadier between passes than the bytes
// the last collection marked (/gc/heap/live), which depend on where in
// a pass the collector happened to run.
type meter struct {
	calib *calibrator
	cost  passCost // filled by measure

	t0     time.Time
	cpu0   float64
	alloc0 uint64
	stop   chan struct{}
	peak   chan uint64
}

const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricHeap   = "/memory/classes/heap/objects:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds is the user plus system CPU time the process has used, so
// in-process fleet nodes are included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// begin collects garbage, so every region starts from the same heap,
// and starts the clock and the heap sampler.
func (m *meter) begin() {
	runtime.GC()
	m.stop, m.peak = make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := readMetric(metricHeap)
		for {
			select {
			case <-m.stop:
				m.peak <- max(peak, readMetric(metricHeap))
				return
			case <-tick.C:
				peak = max(peak, readMetric(metricHeap))
			}
		}
	}()
	m.alloc0 = readMetric(metricAllocs)
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
}

// end stops the clock and the sampler.
func (m *meter) end() passCost {
	c := passCost{
		WallS:   time.Since(m.t0).Seconds(),
		CPUS:    cpuSeconds() - m.cpu0,
		AllocGB: float64(readMetric(metricAllocs)-m.alloc0) / 1e9,
	}
	close(m.stop)
	c.PeakHeapMB = float64(<-m.peak) / 1e6
	return c
}

// measure runs fn as the timed region and keeps its cost, also when fn
// fails, so the sampler never outlives the region.
func (m *meter) measure(fn func() error) (err error) {
	slow := m.calib.around(func() {
		m.begin()
		err = fn()
		m.cost = m.end()
	})
	m.cost.Slowdown, m.cost.CPUSlow, m.cost.MemSlow = slow.slowdown(), slow.cpu, slow.mem
	return err
}
