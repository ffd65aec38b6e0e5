package dfm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Scorecard assembly on top of the fault-tolerant harness: the
// technique evaluators become harness tasks, run through a bounded
// worker pool with per-technique deadlines and panic recovery, and
// the results fold back into a Scorecard in the canonical technique
// order regardless of completion order. Each technique runs once on
// the seed it is labelled with.

// Config controls a harnessed scorecard run.
type Config struct {
	// Parallel is the worker-pool size; < 1 means sequential.
	Parallel int
	// Timeout is the per-technique wall-clock budget; 0 means none.
	Timeout time.Duration
	// Hook runs inside each technique's task, ahead of the evaluator:
	// an error it returns fails the technique without running the
	// evaluator, and a panic or hang in it is classified like the
	// evaluator's. Fault injection plugs in here.
	Hook func(ctx context.Context, technique string) error
}

// DefaultConfig runs one worker per CPU with no deadline — the
// deadline is a deployment policy, so the CLI sets it explicitly.
func DefaultConfig() Config {
	return Config{Parallel: runtime.GOMAXPROCS(0)}
}

// DefaultBlock is the scorecard's standard workload shape; the Seed
// field is ignored (the technique's seed replaces it).
func DefaultBlock() layout.BlockOpts {
	return layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 15, MaxFan: 3}
}

// Threshold is the bar one technique's verdict is judged against: a
// primary-metric gain of at least HitGain at a cost of at most CostCap
// is a HIT (Outcome.Judge has the other two verdicts).
type Threshold struct {
	Technique        string
	HitGain, CostCap float64
	Why              string
}

// technique is one row of the scorecard: the name and verdict bar, the
// metrics its evaluation reports, and the evaluation, in one of three
// shapes. A fixer is a fixture, a fix and a measure (fixer). A setting
// of the generator is one measure over two fixtures (restrictedRules).
// A check (drcPlus) or an analysis (lithoTiming) keeps its body, and so
// does dpt-decomposition, a fixer whose before no measure of its
// fixture reads (dptDecomposition). evaluate does the rest.
type technique struct {
	Threshold
	// metrics are the evaluation's metrics in the order it reports
	// them, Before and After left for evaluate to fill.
	metrics []Metric
	eval    evaluation
}

// evaluation evaluates one technique on the workload, at the seed in
// w.opts.Seed (block techniques draw the workload's block; the others
// ignore its shape), naming its stage spans after name.
type evaluation func(ctx context.Context, name string, t *tech.Tech, w workload) (values, error)

// workload is what an evaluation draws on: the block shape at the
// seed (opts.Seed), and block, the flat block generated from it. The
// block is generated on the first call and shared, read-only, by every
// evaluation handed the same workload: a scorecard's redundant-via,
// dummy-fill and dpt-decomposition read one block, and a generation
// error or panic reaches each of them.
type workload struct {
	opts  layout.BlockOpts
	block func() ([]layout.Shape, error)
}

// newWorkload is the workload of the block shape at the seed.
func newWorkload(t *tech.Tech, seed int64, opts layout.BlockOpts) workload {
	opts.Seed = seed
	return workload{opts, sync.OnceValues(func() ([]layout.Shape, error) { return flatBlock(t, opts) })}
}

// values is what an evaluation reports: one before and one after value
// per metric of its row, and the cost.
type values struct {
	before, after []float64
	cost
}

// cost is a technique's resource cost, Outcome's CostFrac and CostNote.
type cost struct {
	frac float64
	note string
}

// fixer is the evaluation of a technique that changes a layout: its
// fixture, fixed, then the fix and the fixture measured by the same
// measure. The fix reports the cost of what it added. Fixing first
// leaves the evaluation's render handle to the fix (the OPC loop
// renders through it), and measuring the fix first lets an image the
// fix hands over go before the fixture's mask renders over its grid.
func fixer[L any](fixture func(t *tech.Tech, w workload) (L, error),
	fix func(ctx context.Context, t *tech.Tech, in L) (L, cost, error),
	measure func(ctx context.Context, t *tech.Tech, l L) ([]float64, error)) evaluation {
	return func(ctx context.Context, name string, t *tech.Tech, w workload) (v values, err error) {
		sp := stage(name, "fixture")
		in, err := fixture(t, w)
		sp.End()
		if err != nil {
			return v, err
		}
		sp = stage(name, "fix")
		out, c, err := fix(ctx, t, in)
		sp.End()
		if err != nil {
			return v, err
		}
		sp = stage(name, "measure")
		defer sp.End()
		if v.after, err = measure(ctx, t, out); err != nil {
			return v, err
		}
		v.before, err = measure(ctx, t, in)
		v.cost = c
		return v, err
	}
}

// techniques is the one technique table, in scorecard order.
// Scorecard.Detail prints each row's bar beside its outcome.
var techniques = []technique{
	{Threshold{"redundant-via", 0.02, 0.10, "chip yield moves in points, and extra cuts cost no area"},
		[]Metric{
			{Name: "full-chip via yield", Unit: "frac", HigherIsBetter: true, Primary: true},
			{Name: "block via yield", Unit: "frac", HigherIsBetter: true},
			{Name: "single-via fraction", Unit: "frac"},
		},
		fixer(blockFixture, viaFix, viaMeasure)},
	{Threshold{"dummy-fill", 0.10, 0.40, "fill is dead metal, electrically cheap, so the cost cap is loose"},
		[]Metric{
			{Name: "density sigma", Unit: "frac", Primary: true},
			{Name: "density min", Unit: "frac", HigherIsBetter: true},
			{Name: "CMP thickness range", Unit: "nm"},
			{Name: "max density gradient", Unit: "frac"},
		},
		fixer(dieFixture, fillFix, fillMeasure)},
	// Its fix offers two corrections of the one fixture, each measured
	// against it.
	{Threshold{"model-opc", 0.30, 0.10, "correction must remove most of the raw error to earn its mask data and compute"},
		[]Metric{
			{Name: "RMS EPE (model OPC)", Unit: "nm", Primary: true},
			{Name: "RMS EPE (rule OPC)", Unit: "nm"},
		},
		fixer(opcFixture, opcFix, epeMeasure)},
	{Threshold{"sraf", 0.15, 0.10, "assists must buy visible through-focus stability for their MRC burden"},
		[]Metric{
			{Name: "CD shift @80nm defocus", Unit: "nm", Primary: true},
			{Name: "depth of focus", Unit: "nm", HigherIsBetter: true},
		},
		fixer(srafFixture, srafFix, srafMeasure)},
	{Threshold{"drc-plus", 0.10, 0.10, "a pattern deck must catch what plain DRC misses to earn its upkeep"},
		[]Metric{
			{Name: "hotspot capture rate", Unit: "frac", HigherIsBetter: true, Primary: true},
			{Name: "library size", Unit: "patterns", HigherIsBetter: true},
			{Name: "test hotspots", Unit: "sites"},
		},
		drcPlus},
	{Threshold{"litho-aware-timing", 0.02, 0.10, "a slack error of 2% of the period is a speed bin"},
		[]Metric{
			{Name: "unmodeled slack error", Unit: "frac of period", Primary: true},
			{Name: "path rank churn", Unit: "frac inversions"},
			{Name: "unmodeled leakage error", Unit: "frac"},
		},
		lithoTiming},
	{Threshold{"restricted-rules", 0.05, 0.10, "area is the bill the panel argued over; more than 10% of it is not a clear win"},
		[]Metric{
			{Name: "M1 PV band fraction", Unit: "frac", Primary: true},
			{Name: "M1 CD loss @120nm defocus", Unit: "nm"},
			{Name: "library cell area", Unit: "nm2"},
		},
		restrictedRules},
	{Threshold{"dpt-decomposition", 0.10, 0.10, "decomposition must separate the adjacencies; stitch overlap is the cost"},
		[]Metric{
			{Name: "unprintable adjacencies", Unit: "count", Primary: true},
			{Name: "unresolved odd cycles", Unit: "count"},
			{Name: "composite score", Unit: "score", HigherIsBetter: true},
			{Name: "mask balance", Unit: "score", HigherIsBetter: true},
		},
		dptDecomposition},
}

// evaluate runs one row on a workload: the outcome's clock and context
// check, the evaluation, its values zipped into the row's metrics, the
// cost, and the verdict against the row's bar. A failed evaluation's
// outcome carries its error and no metrics. Where an evaluation reports
// fewer before values than after values (model-opc's two corrections of
// one fixture), the befores repeat.
func (d technique) evaluate(ctx context.Context, t *tech.Tech, w workload) (o Outcome) {
	o = Outcome{Technique: d.Technique}
	defer track(&o)()
	if o.Err = ctx.Err(); o.Err != nil {
		return o
	}
	v, err := d.eval(ctx, d.Technique, t, w)
	if err != nil {
		o.Err = err
		return o
	}
	o.Metrics = slices.Clone(d.metrics)
	for i := range o.Metrics {
		o.Metrics[i].Before, o.Metrics[i].After = v.before[i%len(v.before)], v.after[i]
	}
	o.CostFrac, o.CostNote = v.frac, v.note
	o.Judge(d.HitGain, d.CostCap)
	return o
}

// techniqueNamed returns the table row for name.
func techniqueNamed(name string) (technique, bool) {
	for _, d := range techniques {
		if d.Technique == name {
			return d, true
		}
	}
	return technique{}, false
}

// Thresholds returns the verdict bars in canonical scorecard order.
// The slice is fresh on every call.
func Thresholds() []Threshold {
	ths := make([]Threshold, len(techniques))
	for i, d := range techniques {
		ths[i] = d.Threshold
	}
	return ths
}

// Bar renders the threshold pair.
func (th Threshold) Bar() string {
	return fmt.Sprintf("HIT at gain >= %.0f%% and cost <= %.0f%%", 100*th.HitGain, 100*th.CostCap)
}

// Techniques returns the technique names in canonical scorecard
// order. The slice is fresh on every call.
func Techniques() []string {
	names := make([]string, len(techniques))
	for i, d := range techniques {
		names[i] = d.Technique
	}
	return names
}

// ErrUnknownTechnique is returned by TechniqueTask for a name outside
// the registry.
var ErrUnknownTechnique = errors.New("dfm: unknown technique")

// TechniqueTask builds the harness task for one named technique on an
// explicit workload shape — the entry point the serving layer uses to
// evaluate a single technique per request. seed is the workload base
// seed; base is the block shape for block-driven techniques, whose
// block each run of the task generates for itself.
func TechniqueTask(t *tech.Tech, name string, seed int64, base layout.BlockOpts) (harness.Task, error) {
	d, ok := techniqueNamed(name)
	if !ok {
		return harness.Task{}, fmt.Errorf("%w: %q", ErrUnknownTechnique, name)
	}
	return harness.Task{Name: name, Run: func(ctx context.Context, _ int) (any, error) {
		o := d.evaluate(ctx, t, newWorkload(t, seed, base))
		return o, o.Err
	}}, nil
}

// RunAllConfig evaluates every technique at the seed with the default
// block and returns the scorecard — the panel's question, answered end
// to end — through the fault-tolerant harness under cfg. Every
// technique always yields exactly one outcome: a failed, timed-out,
// panicked, or canceled evaluator degrades to an outcome whose Err
// carries the harness's typed classification while the remaining
// techniques report real verdicts. The seed's block is generated once,
// by the first technique that reads it.
func RunAllConfig(ctx context.Context, t *tech.Tech, seed int64, cfg Config) *Scorecard {
	return runAll(ctx, t, newWorkload(t, seed, DefaultBlock()), cfg)
}

// runAll is RunAllConfig on one workload, which every technique shares.
func runAll(ctx context.Context, t *tech.Tech, w workload, cfg Config) *Scorecard {
	tasks := make([]harness.Task, len(techniques))
	for i, d := range techniques {
		tasks[i] = harness.Task{Name: d.Technique, Timeout: cfg.Timeout, Run: func(ctx context.Context, _ int) (any, error) {
			if cfg.Hook != nil {
				if err := cfg.Hook(ctx, d.Technique); err != nil {
					return nil, err
				}
			}
			o := d.evaluate(ctx, t, w)
			return o, o.Err
		}}
	}
	results := harness.Run(ctx, tasks, harness.Options{Workers: cfg.Parallel})
	sc := &Scorecard{}
	for _, r := range results {
		sc.Add(OutcomeOf(r))
	}
	return sc
}

// OutcomeOf folds a settled harness task into its technique's outcome,
// for the batch scorecard and dfmd alike. A task that never produced
// an outcome (abandoned timeout, panic, injected fault, a tile job)
// gets a shell named after it; a harness error, the richer classified
// form of whatever the evaluator reported, replaces the outcome's own
// and makes the verdict HYPE.
func OutcomeOf(r harness.Result) Outcome {
	o, ok := r.Value.(Outcome)
	if !ok {
		o = Outcome{Technique: r.Name}
	}
	if r.Err != nil {
		o.Err = r.Err
		o.Verdict = Hype
	}
	if o.Runtime == 0 {
		o.Runtime = r.Runtime
	}
	return o
}
