package main

import (
	"context"
	"fmt"
	"time"
)

// rootSpan is the traced run's outermost span; its self time is the
// time no layer accounts for.
const rootSpan = 0

// config is what a workload is built from. Sizes are in sizes; tr is
// nil unless this is the traced run.
type config struct {
	seed    int64
	workers int
	sizes   sizes
	tr      *tracer
	calib   *calibrator // nil reports times as measured
}

// sizes are the input sizes of the five workloads. fullSizes is what
// BENCHMARK.json measures; the smoke test has its own.
type sizes struct {
	drcRects    int64 // chip_drc TargetRects
	lithoSlots  int   // chip_litho floorplan side
	fleetRects  int64 // chip_fleet TargetRects
	editRects   int64 // chip_edit TargetRects
	editDefects int   // chip_edit RepairDefects (two fix sites each)
	editFixes   int   // chip_edit fixes applied per pass
	cardSeeds   int   // scorecard seeds per pass
}

var fullSizes = sizes{drcRects: 100_000, lithoSlots: 2, fleetRects: 50_000, editRects: 30_000, editDefects: 16, editFixes: 6, cardSeeds: 4}

// passOut is what one pass produced: a digest of its result, the number
// of operations it attempted, and a line for the log.
type passOut struct {
	digest string
	units  int
	note   string
}

// check is one verification outcome.
type check struct {
	name string
	ok   bool
}

// workload is one set of inputs and the passes over it.
type workload interface {
	// setup generates the inputs and builds everything a pass needs.
	setup(ctx context.Context) error
	// pass runs once over the inputs; what it hands to m.measure is the
	// region the end-to-end metrics measure.
	pass(ctx context.Context, m *meter) (passOut, error)
	// verify checks the last pass's result against independent
	// evaluations of the same inputs. It is never timed.
	verify(ctx context.Context) ([]check, error)
	// layers is the traced run: the same inputs at one worker, with a
	// span around every call into a layer, filling lm.
	layers(ctx context.Context, lm layerMetrics) error
	// describe states the input size actually generated.
	describe() string
}

// workloadDef names a workload and says why it is in the benchmark.
type workloadDef struct {
	name string
	why  string
	new  func(config) workload
}

var workloadDefs = []workloadDef{
	{"chip_drc", "signoff DRC+density of a 97k-rect chip (8x8 slots, 64 tiles of 24000): tiling extract/hash/stitch, geom and drc do all the work; litho, the wire and the servers do none",
		func(c config) workload { return &chipDRC{chip: chip{cfg: c}} }},
	{"chip_litho", "exact metal1 hotspot scan of a 2x2-slot chip of logic and via macros (9 windows): nearly all time is litho.ScanWindowCtx and drc does nothing, so a kernel change shows here only",
		func(c config) workload { return &chipLitho{chip: chip{cfg: c}} }},
	{"chip_fleet", "53k-rect chip (6x6 slots) through a 2-node fleet, cold pass A then resubmitted pass B: same compute as chip_drc, so what differs is wire, HTTP, router ring and server cache",
		func(c config) workload { return &chipFleet{chip: chip{cfg: c}} }},
	{"chip_edit", "6 repair fixes applied one at a time to a 35k-rect chip (5x5 slots), each re-scored by EvaluateDelta: the tiling and drc layers of chip_drc used to splice instead of compute",
		func(c config) workload { return &chipEdit{chip: chip{cfg: c}} }},
	{"scorecard", "dfm.RunAllConfig over 4 consecutive seeds: the paper's own deliverable and the only path into opc, yield, sta, pattern, dpt, fill and litho.Simulate",
		func(c config) workload { return &scorecard{cfg: c} }},
}

func findWorkload(name string) (workloadDef, error) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// runSeconds is how long the timed passes of one run last unless
// -seconds says otherwise; BENCHMARK.json's run_seconds is the same.
const runSeconds = 10

// setupRepeats is how many times a run sets the workload up from
// scratch; setup_s is the median, so one slow start does not decide it.
const setupRepeats = 3

// minPasses is the fewest timed passes a run reports medians from.
const minPasses = 3

// runResult is everything one end-to-end run measured.
type runResult struct {
	def       workloadDef
	describe  string
	setupS    []float64
	costs     []passCost
	digests   []string
	notes     []string
	checks    []check
	attempted int
	failed    int
	err       error
}

// runEndToEnd sets the workload up setupRepeats times (each set-up ends
// with one warm-up pass whose cost is thrown away, so pools are full and
// connections open), then runs timed passes for the given time, then
// verifies. A failed pass or check is counted, not fatal: the caller
// reports the share and exits non-zero.
func runEndToEnd(ctx context.Context, def workloadDef, cfg config, seconds float64) *runResult {
	r := &runResult{def: def}
	fail := func(err error) *runResult {
		r.attempted++
		r.failed++
		r.err = err
		return r
	}
	var w workload
	for i := 0; i < setupRepeats; i++ {
		var err error
		var took time.Duration
		slow := cfg.calib.around(func() {
			t0 := time.Now()
			w = def.new(cfg)
			if err = w.setup(ctx); err != nil {
				err = fmt.Errorf("setup: %w", err)
			} else if _, err = w.pass(ctx, &meter{}); err != nil {
				err = fmt.Errorf("warm-up pass: %w", err)
			}
			took = time.Since(t0)
		})
		if err != nil {
			return fail(err)
		}
		r.setupS = append(r.setupS, took.Seconds()/slow.slowdown())
	}
	r.describe = w.describe()

	start := time.Now()
	for len(r.costs) < minPasses || time.Since(start).Seconds() < seconds {
		m := &meter{calib: cfg.calib}
		out, err := w.pass(ctx, m)
		r.attempted += max(out.units, 1)
		if err != nil {
			r.failed++
			r.err = fmt.Errorf("pass %d: %w", len(r.costs), err)
			return r
		}
		r.costs = append(r.costs, m.cost)
		r.digests = append(r.digests, out.digest)
		r.notes = append(r.notes, out.note)
	}

	for i, d := range r.digests[1:] {
		r.checks = append(r.checks, check{fmt.Sprintf("pass %d digest equals pass 0", i+1), d == r.digests[0]})
	}
	cs, err := w.verify(ctx)
	if err != nil {
		return fail(fmt.Errorf("verify: %w", err))
	}
	r.checks = append(r.checks, cs...)
	for _, c := range r.checks {
		r.attempted++
		if !c.ok {
			r.failed++
		}
	}
	return r
}
