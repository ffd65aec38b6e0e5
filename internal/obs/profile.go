package obs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile written to cpuPath and arranges
// for a heap profile to be written to memPath; an empty path skips
// that profile. The returned stop function ends the CPU profile and
// writes the heap profile; call it exactly once, on the way out. The
// CLI `-cpuprofile`/`-memprofile` flags funnel through here.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	return func() error {
		var cpuErr error
		if cpu != nil {
			pprof.StopCPUProfile()
			cpuErr = cpu.Close()
		}
		return errors.Join(cpuErr, writeHeapProfile(memPath))
	}, nil
}

func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush recently freed objects for an accurate live-heap picture
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("write heap profile: %w", err)
	}
	return f.Close()
}
