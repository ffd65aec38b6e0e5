package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// environment is recorded with every result, so a number can be traced
// to the machine and build that produced it.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

// commit is the git commit of the checkout, set by run.sh at link time;
// a checkout that is not a git repository has none.
var commit = "unknown"

// readEnvironment refuses to run oversubscribed: with more Ps than
// processors the scheduler, not the program, decides the wall time.
func readEnvironment() (environment, error) {
	e := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Commit: commit,
	}
	if e.GOMAXPROCS > e.NProc {
		return e, fmt.Errorf("GOMAXPROCS %d exceeds the %d processors of this machine", e.GOMAXPROCS, e.NProc)
	}
	e.Workers = min(2, e.NProc)
	return e, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (e environment) String() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, workers %d, %s, %s, commit %s",
		e.NProc, e.GOMAXPROCS, e.Workers, e.GoVersion, e.CPUModel, e.Commit)
}
