package dfm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Scorecard assembly on top of the fault-tolerant harness: the
// technique evaluators become harness tasks, run through a bounded
// worker pool with per-technique deadlines, panic recovery, and
// retry-on-workload-failure, and the results fold back into a
// Scorecard in the canonical technique order regardless of
// completion order.

// Config controls a harnessed scorecard run.
type Config struct {
	// Parallel is the worker-pool size; < 1 means sequential.
	Parallel int
	// Timeout is the per-technique, per-attempt wall-clock budget;
	// 0 means none.
	Timeout time.Duration
	// Retries is the number of extra attempts granted to retryable
	// workload failures; each retry perturbs the workload seed.
	Retries int
	// Backoff is the first retry delay (doubles per retry).
	Backoff time.Duration
	// Hook runs before every attempt; fault injection plugs in here.
	Hook harness.Hook
}

// DefaultConfig runs one worker per CPU with one retry and no
// deadline — the deadline is a deployment policy, so the CLI sets it
// explicitly.
func DefaultConfig() Config {
	return Config{
		Parallel: runtime.GOMAXPROCS(0),
		Retries:  1,
		Backoff:  50 * time.Millisecond,
	}
}

// seedPerturb spreads retry seeds away from the original and from
// each other so a degenerate workload is not regenerated verbatim.
const seedPerturb = 7919

// PerturbSeed derives the workload seed for a retry attempt
// (attempt 0 returns the seed unchanged).
func PerturbSeed(seed int64, attempt int) int64 {
	return seed + int64(attempt)*seedPerturb
}

// DefaultBlock is the scorecard's standard workload shape; the Seed
// field is ignored (each attempt derives its seed via PerturbSeed).
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

// technique is one row of the scorecard: the name and verdict bar, and
// the evaluator. base carries the workload shape for block-driven
// techniques (its Seed is overwritten with the perturbed attempt
// seed); analysis techniques ignore it.
type technique struct {
	Threshold
	run func(ctx context.Context, t *tech.Tech, seed int64, base layout.BlockOpts, attempt int) Outcome
}

// techniques is the one technique table, in scorecard order. Every
// Eval* judges from its row and Scorecard.Detail prints it; since the
// rows name the Eval*s, a static initializer would be a cycle, so init
// fills it.
var techniques []technique

func init() {
	techniques = []technique{
		{Threshold{"redundant-via", 0.02, 0.10, "chip yield moves in points, and extra cuts cost no area"},
			func(ctx context.Context, t *tech.Tech, seed int64, base layout.BlockOpts, a int) Outcome {
				base.Seed = PerturbSeed(seed, a)
				return EvalRedundantVia(ctx, t, base)
			}},
		{Threshold{"dummy-fill", 0.10, 0.40, "fill is dead metal, electrically cheap, so the cost cap is loose"},
			func(ctx context.Context, t *tech.Tech, seed int64, base layout.BlockOpts, a int) Outcome {
				base.Seed = PerturbSeed(seed, a)
				return EvalDummyFill(ctx, t, base)
			}},
		{Threshold{"model-opc", 0.30, 0.10, "correction must remove most of the raw error to earn its mask data and compute"},
			func(ctx context.Context, t *tech.Tech, seed int64, base layout.BlockOpts, a int) Outcome {
				return EvalOPCAccuracy(ctx, t)
			}},
		{Threshold{"sraf", 0.15, 0.10, "assists must buy visible through-focus stability for their MRC burden"},
			func(ctx context.Context, t *tech.Tech, seed int64, base layout.BlockOpts, a int) Outcome {
				return EvalSRAF(ctx, t)
			}},
		{Threshold{"drc-plus", 0.10, 0.10, "a pattern deck must catch what plain DRC misses to earn its upkeep"},
			func(ctx context.Context, t *tech.Tech, seed int64, base layout.BlockOpts, a int) Outcome {
				s := PerturbSeed(seed, a)
				return EvalDRCPlus(ctx, t, s, s+1)
			}},
		{Threshold{"litho-aware-timing", 0.02, 0.10, "a slack error of 2% of the period is a speed bin"},
			func(ctx context.Context, t *tech.Tech, seed int64, base layout.BlockOpts, a int) Outcome {
				return EvalLithoTiming(ctx, t, PerturbSeed(seed, a))
			}},
		{Threshold{"restricted-rules", 0.05, 0.10, "area is the bill the panel argued over; more than 10% of it is not a clear win"},
			func(ctx context.Context, t *tech.Tech, seed int64, base layout.BlockOpts, a int) Outcome {
				return EvalRestrictedRules(ctx, t)
			}},
		{Threshold{"dpt-decomposition", 0.10, 0.10, "decomposition must separate the adjacencies; stitch overlap is the cost"},
			func(ctx context.Context, t *tech.Tech, seed int64, base layout.BlockOpts, a int) Outcome {
				base.Seed = PerturbSeed(seed, a)
				return EvalDPT(ctx, t, base)
			}},
	}
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

// judge sets the verdict from the technique's row of the table.
func (o *Outcome) judge() {
	d, _ := techniqueNamed(o.Technique)
	o.Judge(d.HitGain, d.CostCap)
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
// seed (perturbed per retry attempt); base is the block shape for
// block-driven techniques.
func TechniqueTask(t *tech.Tech, name string, seed int64, base layout.BlockOpts) (harness.Task, error) {
	d, ok := techniqueNamed(name)
	if !ok {
		return harness.Task{}, fmt.Errorf("%w: %q", ErrUnknownTechnique, name)
	}
	return harness.Task{Name: name, Run: func(ctx context.Context, attempt int) (any, error) {
		o := d.run(ctx, t, seed, base, attempt)
		return o, o.Err
	}}, nil
}

// TechniqueTasks builds the harness task list for every technique at
// the given base seed, in the canonical scorecard order. Retry
// attempts of workload-driven techniques run on perturbed seeds.
func TechniqueTasks(t *tech.Tech, seed int64) []harness.Task {
	tasks := make([]harness.Task, 0, len(techniques))
	for _, d := range techniques {
		task, _ := TechniqueTask(t, d.Technique, seed, DefaultBlock())
		tasks = append(tasks, task)
	}
	return tasks
}

// RunAll evaluates every technique with default workloads and returns
// the scorecard — the panel's question, answered end to end. It runs
// through the fault-tolerant harness with DefaultConfig.
func RunAll(ctx context.Context, t *tech.Tech, seed int64) *Scorecard {
	return RunAllConfig(ctx, t, seed, DefaultConfig())
}

// RunAllConfig is RunAll with explicit harness policy. Every
// technique always yields exactly one outcome: a failed, timed-out,
// panicked, or canceled evaluator degrades to an outcome whose Err
// carries the harness's typed classification while the remaining
// techniques report real verdicts.
func RunAllConfig(ctx context.Context, t *tech.Tech, seed int64, cfg Config) *Scorecard {
	results := harness.Run(ctx, TechniqueTasks(t, seed), harness.Options{
		Parallel: cfg.Parallel,
		Timeout:  cfg.Timeout,
		Retries:  cfg.Retries,
		Backoff:  cfg.Backoff,
		Hook:     cfg.Hook,
	})
	sc := &Scorecard{}
	for _, r := range results {
		o, ok := r.Value.(Outcome)
		if !ok {
			// The attempt never produced an outcome (abandoned
			// timeout, panic, injected fault): synthesize the shell.
			o = Outcome{Technique: r.Name}
		}
		if r.Err != nil {
			// The harness error is the richer, classified form of
			// whatever the evaluator reported.
			o.Err = r.Err
			o.Verdict = Hype
		}
		o.Attempts = r.Attempts
		if o.Runtime == 0 {
			o.Runtime = r.Runtime
		}
		sc.Add(o)
	}
	return sc
}
