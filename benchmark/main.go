// Command benchmark is this repository's one benchmark: five workloads,
// the same end-to-end metrics on each, and per-layer metrics from a
// separate traced run. See README.md.
//
//	bash benchmark/run.sh                       every workload, end to end
//	bash benchmark/run.sh -trace 1              every workload, traced
//	bash benchmark/run.sh -workload chip_drc -seed 3 -seconds 10 -trace 0
//	bash benchmark/run.sh -selfcheck            two sets of runs, compared
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
)

// sample is one reported metric: the value, its unit, how many samples
// it is the median of, and their quartiles when there are at least two.
type sample struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
}

// report is the last line a run prints, in the shape the driver reads.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
}

// record is what a run stores beside the trace: the report plus
// everything needed to say where it came from.
type record struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Env      environment `json:"env"`
	Input    string      `json:"input"`
	Passes   []passCost  `json:"passes,omitempty"`
	SetupS   []float64   `json:"setups_s,omitempty"`
	Notes    []string    `json:"notes,omitempty"` // one line per pass
	Digests  []string    `json:"digests,omitempty"`
	Failures []string    `json:"failures,omitempty"`
	Report   report      `json:"report"`
}

func main() { os.Exit(benchMain(os.Args[1:])) }

// benchMain parses the command line and returns the exit code: 0 for a
// correct run, 1 when anything failed, 2 for a run that could not start.
func benchMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Int64("seed", 11, "workload seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", runSeconds, "how long the timed passes of one workload run")
		trace     = fs.Int("trace", 0, "1 runs the traced, one-worker run and reports the per-layer metrics")
		selfcheck = fs.Bool("selfcheck", false, "run two complete sets of runs and compare them against the bounds")
		runs      = fs.Int("runs", 10, "selfcheck: runs (seeds) per workload in each set")
		outDir    = fs.String("out", defaultOut(), "directory for trace.json and the result records")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck [-runs n]] [-out dir]")
		return 2
	}
	env, err := readEnvironment()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defs := workloadDefs
	if *name != "all" {
		d, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defs = []workloadDef{d}
	}
	if *selfcheck {
		return runSelfcheck(defs, env, *seed, *seconds, *runs, *outDir)
	}
	calib, err := newCalibrator(env.Workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg := config{seed: *seed, workers: env.Workers, sizes: fullSizes, calib: calib}
	return runWorkloads(context.Background(), defs, cfg, env, *seconds, *trace == 1, *outDir)
}

// runWorkloads runs each workload once, end to end or traced, prints
// and stores its record, and returns the exit code.
func runWorkloads(ctx context.Context, defs []workloadDef, cfg config, env environment, seconds float64, traced bool, outDir string) int {
	code := 0
	var spans []span
	for _, def := range defs {
		var rec record
		if traced {
			var tr *tracer
			rec, tr = runTraced(ctx, def, cfg)
			spans = append(spans, tr.spans...)
		} else {
			rec = summarize(runEndToEnd(ctx, def, cfg, seconds))
		}
		rec.Seed, rec.Seconds, rec.Env = cfg.seed, seconds, env
		if err := writeJSON(filepath.Join(outDir, recordName(rec)), rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		printRecord(rec)
		if !rec.Report.Correct {
			code = 1
		}
	}
	if traced {
		if err := writeJSON(filepath.Join(outDir, "trace.json"), spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
	}
	return code
}

// defaultOut is benchmark/out when started from the repository root and
// out when started from the benchmark's own directory.
func defaultOut() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func recordName(r record) string {
	if r.Traced {
		return r.Workload + ".trace.json"
	}
	return r.Workload + ".json"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summarize turns the passes of an end-to-end run into the reported
// medians. Nothing is reported from a single pass: wall, CPU and bytes
// are medians over the timed passes, the heap peak is the median of the
// passes' peaks, set-up the median of the set-ups. Every time is divided
// by the machine's slowdown around it before the median is taken.
func summarize(r *runResult) record {
	rec := record{Workload: r.def.name, Input: r.describe, Passes: r.costs, SetupS: r.setupS, Notes: r.notes, Digests: r.digests}
	rec.Report = report{Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0, Metrics: map[string]sample{}}
	if r.err != nil {
		rec.Failures = append(rec.Failures, r.err.Error())
	}
	for _, c := range r.checks {
		if !c.ok {
			rec.Failures = append(rec.Failures, "check failed: "+c.name)
		}
	}
	col := func(f func(passCost) float64) []float64 {
		var xs []float64
		for _, c := range r.costs {
			xs = append(xs, f(c))
		}
		return xs
	}
	values := map[string][]float64{
		"wall_s":       col(func(c passCost) float64 { return c.WallS / c.Slowdown }),
		"cpu_s":        col(func(c passCost) float64 { return c.CPUS / c.Slowdown }),
		"alloc_gb":     col(func(c passCost) float64 { return c.AllocGB }),
		"peak_heap_mb": col(func(c passCost) float64 { return c.PeakHeapMB }),
		"setup_s":      r.setupS,
	}
	for _, m := range endToEnd {
		xs := values[m.name]
		s := sample{Value: median(xs), Unit: m.unit, N: len(xs)}
		if len(xs) >= 2 {
			q1, q3 := quartiles(xs)
			s.Q1, s.Q3 = &q1, &q3
		}
		rec.Report.Metrics[m.name] = s
	}
	return rec
}

// runTraced is the one-worker traced run of a workload: every call into
// a layer under a span, obs counters on, per-layer metrics out.
func runTraced(ctx context.Context, def workloadDef, cfg config) (record, *tracer) {
	obs.SetEnabled(true)
	cfg.workers = 1
	cfg.tr = newTracer(def.name)
	root := cfg.tr.begin("bench.traced", -1)
	w := def.new(cfg)
	lm := layerMetrics{}
	err := w.layers(ctx, lm)
	cfg.tr.end(root)

	spans := cfg.tr.spans
	self := selfTimes(spans)
	lm["layout.generate_s"] = sumByName(spans, nil, "layout.generate")
	if _, set := lm["tiling.extractor_build_s"]; !set {
		lm["tiling.extractor_build_s"] = sumByName(spans, nil, "tiling.extractor_build")
	}
	lm["bench.traced_wall_s"] = float64(spans[root].End-spans[root].Start) / 1e9
	lm["bench.span_coverage"] = 1 - float64(self[root])/float64(spans[root].End-spans[root].Start)

	rec := record{Workload: def.name, Traced: true, Input: w.describe()}
	rec.Report = report{Attempted: 1, Correct: err == nil, Metrics: map[string]sample{}}
	if err != nil {
		rec.Report.Failed = 1
		rec.Failures = append(rec.Failures, err.Error())
	}
	for _, m := range perLayer {
		rec.Report.Metrics[m.name] = sample{Value: lm[m.name], Unit: m.unit}
	}
	return rec, cfg.tr
}

// printRecord prints every metric by name with its unit and sample
// count, then the one-line report the driver reads.
func printRecord(rec record) {
	mode := "end to end"
	defs := endToEnd
	if rec.Traced {
		mode, defs = "traced, one worker", perLayer
	}
	fmt.Printf("%s (%s): seed %d, %s\n  %s\n", rec.Workload, mode, rec.Seed, rec.Input, rec.Env)
	for i, c := range rec.Passes {
		fmt.Printf("  pass %d: wall %.3f s, cpu %.3f s (machine x%.2f), alloc %.3f GB, peak heap %.1f MB | %s | digest %s\n",
			i, c.WallS, c.CPUS, c.Slowdown, c.AllocGB, c.PeakHeapMB, rec.Notes[i], rec.Digests[i])
	}
	for _, m := range defs {
		s := rec.Report.Metrics[m.name]
		line := fmt.Sprintf("  %-32s %12.6g %-5s", m.name, s.Value, s.Unit)
		if s.N > 0 {
			line += fmt.Sprintf("  n=%d", s.N)
		}
		if s.Q1 != nil {
			line += fmt.Sprintf("  quartiles %.6g .. %.6g", *s.Q1, *s.Q3)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	if !rec.Traced {
		fmt.Printf("  %-32s %12.6g %-5s  %d failed of %d attempted\n", "failed_share",
			float64(rec.Report.Failed)/float64(rec.Report.Attempted), "ratio", rec.Report.Failed, rec.Report.Attempted)
	}
	for _, f := range rec.Failures {
		fmt.Println("  FAILED:", f)
	}
	out := report{Correct: rec.Report.Correct, Attempted: rec.Report.Attempted, Failed: rec.Report.Failed, Metrics: map[string]sample{}}
	for k, s := range rec.Report.Metrics {
		out.Metrics[k] = sample{Value: s.Value, Unit: s.Unit}
	}
	b, _ := json.Marshal(out) // a map of plain structs cannot fail to encode
	fmt.Println(string(b))
}
