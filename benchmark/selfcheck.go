package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// spreadRow is the observed spread of one metric on one workload over
// the runs of one set.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Set      int     `json:"set"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"` // (q3-q1)/median
	Bound    float64 `json:"bound"`
}

// runSelf runs this same binary once, as the driver does, and returns
// the report on the last line of its output.
func runSelf(def workloadDef, seed int64, seconds float64, trace int, outDir string) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.Command(exe, "-workload", def.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s seed %d: %w", def.name, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return report{}, fmt.Errorf("%s seed %d: last line is not a report: %w", def.name, seed, err)
	}
	if !rep.Correct {
		return rep, fmt.Errorf("%s seed %d: run reported incorrect results", def.name, seed)
	}
	return rep, nil
}

// runSelfcheck does what the driver does to accept the benchmark: two
// sets of runs per workload, each run with another seed, and for every
// end-to-end metric the inter-quartile spread as a share of the median
// and the move of the median between the sets, both against the
// metric's bound (set-up time is held to the second only). Then two
// traced runs per workload, whose counts and ratios must be identical.
// It returns the process exit code.
func runSelfcheck(defs []workloadDef, env environment, seed int64, seconds float64, runs int, outDir string) int {
	if runs < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck needs at least 2 runs per set")
		return 2
	}
	fmt.Printf("selfcheck: 2 sets x %d runs x %d workloads, %g s each; %s\n", runs, len(defs), seconds, env)
	var rows []spreadRow
	bad := 0
	complain := func(format string, a ...any) {
		bad++
		fmt.Printf("  OUT OF BOUND: "+format+"\n", a...)
	}
	for _, def := range defs {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				rep, err := runSelf(def, seed+int64(i), seconds, 0, outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				for name, s := range rep.Metrics {
					sets[set][name] = append(sets[set][name], s.Value)
				}
			}
		}
		for _, m := range endToEnd {
			var med [2]float64
			for set := range sets {
				xs := sets[set][m.name]
				q1, q3 := quartiles(xs)
				row := spreadRow{def.name, m.name, set + 1, len(xs), median(xs), q1, q3, spread(xs), m.bound}
				rows = append(rows, row)
				med[set] = row.Median
				fmt.Printf("  %-10s %-13s set %d: median %.6g %s, quartiles %.6g .. %.6g, spread %.1f%% of bound %.0f%%, n=%d\n",
					def.name, m.name, set+1, row.Median, m.unit, q1, q3, 100*row.Spread, 100*m.bound, row.N)
				if m.name != "setup_s" && row.Spread > m.bound {
					complain("%s %s set %d spread %.1f%% exceeds %.0f%%", def.name, m.name, set+1, 100*row.Spread, 100*m.bound)
				}
			}
			if worse := (med[1] - med[0]) / med[0]; worse > m.bound {
				complain("%s %s median moved %.6g -> %.6g (+%.1f%%, bound %.0f%%)", def.name, m.name, med[0], med[1], 100*worse, 100*m.bound)
			}
		}
		// Counts come from the one-worker traced run only, where no two
		// workers can miss the same content at once; there they repeat.
		var traced [2]report
		for i := range traced {
			var err error
			if traced[i], err = runSelf(def, seed, seconds, 1, outDir); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		for _, m := range perLayer {
			a, b := traced[0].Metrics[m.name].Value, traced[1].Metrics[m.name].Value
			if m.unit == "count" && a != b {
				complain("%s %s differs between two traced runs: %g vs %g", def.name, m.name, a, b)
			}
		}
		fmt.Printf("  %-10s traced twice: every count identical, span coverage %.3f and %.3f\n", def.name,
			traced[0].Metrics["bench.span_coverage"].Value, traced[1].Metrics["bench.span_coverage"].Value)
	}
	if err := writeJSON(filepath.Join(outDir, "selfcheck.json"), rows); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d comparisons out of bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every spread and every median within its bound")
	return 0
}
