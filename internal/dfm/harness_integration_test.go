package dfm

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// countingHook wraps a fault set's Hook and counts its calls per
// technique.
func countingHook(fi *faultinject.Set) (func(context.Context, string) error, map[string]*atomic.Int32) {
	fires := map[string]*atomic.Int32{}
	for _, name := range Techniques() {
		fires[name] = new(atomic.Int32)
	}
	return func(ctx context.Context, technique string) error {
		fires[technique].Add(1)
		return fi.Hook(ctx, technique)
	}, fires
}

// TestScorecardSurvivesTotalFaultStorm injects a fault into every
// technique — panics, hangs, workload and terminal errors — and
// checks that the run degrades to a complete scorecard of typed
// per-technique errors instead of a dead process. No real evaluation
// runs, so this covers the whole failure surface in milliseconds.
func TestScorecardSurvivesTotalFaultStorm(t *testing.T) {
	terminal := errors.New("terminal evaluation failure")
	fi := faultinject.New().
		Plan("redundant-via", faultinject.Fault{PanicMsg: "injected via panic"}).
		Plan("dummy-fill", faultinject.Fault{Delay: 10 * time.Second, Block: true}).
		Plan("model-opc", faultinject.Fault{Err: terminal}).
		Plan("sraf", faultinject.Fault{Err: harness.Workload(errors.New("flaky mask gen")), Times: 3}).
		Plan("drc-plus", faultinject.Fault{PanicMsg: "injected drc panic"}).
		Plan("litho-aware-timing", faultinject.Fault{Delay: 10 * time.Second, Block: true}).
		Plan("restricted-rules", faultinject.Fault{Err: terminal}).
		Plan("dpt-decomposition", faultinject.Fault{Err: harness.Workload(errors.New("flaky workload")), Times: 3})

	hook, fires := countingHook(fi)
	start := time.Now()
	sc := RunAllConfig(context.Background(), tech.N45(), 11, Config{
		Parallel: 4,
		Timeout:  50 * time.Millisecond,
		Hook:     hook,
	})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("fault storm took %v; hangs not abandoned", elapsed)
	}

	if len(sc.Outcomes) != 8 {
		t.Fatalf("scorecard incomplete under faults: %d outcomes", len(sc.Outcomes))
	}
	wantKind := map[string]error{
		"redundant-via":      harness.ErrPanic,
		"dummy-fill":         harness.ErrTimeout,
		"model-opc":          nil, // terminal plain error, no harness kind
		"sraf":               harness.ErrWorkload,
		"drc-plus":           harness.ErrPanic,
		"litho-aware-timing": harness.ErrTimeout,
		"restricted-rules":   nil,
		"dpt-decomposition":  harness.ErrWorkload,
	}
	for _, o := range sc.Outcomes {
		if o.Err == nil {
			t.Errorf("%s: fault did not surface", o.Technique)
			continue
		}
		if o.Verdict != Hype {
			t.Errorf("%s: failed technique judged %v", o.Technique, o.Verdict)
		}
		if want := wantKind[o.Technique]; want != nil && !errors.Is(o.Err, want) {
			t.Errorf("%s: err %v, want kind %v", o.Technique, o.Err, want)
		}
	}
	// Every fault is terminal: each technique ran once, so the hook
	// fired once even where three workload faults were planned.
	for name, n := range fires {
		if n.Load() != 1 {
			t.Errorf("%s: hook fired %d times, want 1", name, n.Load())
		}
	}
	// All renderers must survive the degraded scorecard.
	if tbl := sc.Table(); !strings.Contains(tbl, "ERROR[panic]") || !strings.Contains(tbl, "ERROR[timeout]") {
		t.Errorf("table missing typed errors:\n%s", tbl)
	}
	if _, err := sc.JSON(); err != nil {
		t.Errorf("JSON failed on degraded scorecard: %v", err)
	}
}

// TestRunAllFaultInjection is the end-to-end degradation proof: one
// technique panics, one hangs past the timeout the others finish well
// inside, one fails its workload once and is not run again — and every
// other technique still reports a real verdict with real metrics.
func TestRunAllFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("full scorecard is slow")
	}
	fi := faultinject.New().
		Plan("model-opc", faultinject.Fault{PanicMsg: "injected opc crash"}).
		Plan("sraf", faultinject.Fault{Delay: time.Minute, Block: true}).
		Plan("drc-plus", faultinject.Fault{Err: harness.Workload(errors.New("injected workload failure"))})

	hook, fires := countingHook(fi)
	sc := RunAllConfig(context.Background(), tech.N45(), 11, Config{
		Parallel: 4,
		Timeout:  3 * time.Second,
		Hook:     hook,
	})

	if len(sc.Outcomes) != 8 {
		t.Fatalf("scorecard incomplete: %d outcomes", len(sc.Outcomes))
	}
	byName := map[string]Outcome{}
	for _, o := range sc.Outcomes {
		byName[o.Technique] = o
	}

	if o := byName["model-opc"]; !errors.Is(o.Err, harness.ErrPanic) {
		t.Errorf("model-opc: %v, want panic", o.Err)
	} else {
		var he *harness.Error
		if !errors.As(o.Err, &he) || !strings.Contains(string(he.Stack), "goroutine") {
			t.Errorf("model-opc panic lost its stack")
		}
	}
	if o := byName["sraf"]; !errors.Is(o.Err, harness.ErrTimeout) {
		t.Errorf("sraf: %v, want timeout", o.Err)
	}
	if o := byName["drc-plus"]; !errors.Is(o.Err, harness.ErrWorkload) || o.Verdict != Hype || len(o.Metrics) != 0 {
		t.Errorf("drc-plus: err %v verdict %v, %d metrics; want the workload fault, HYPE, none", o.Err, o.Verdict, len(o.Metrics))
	}
	if n := fires["drc-plus"].Load(); n != 1 {
		t.Errorf("drc-plus: hook fired %d times, want 1", n)
	}

	// Every unfaulted technique reports a real verdict.
	for _, name := range []string{"redundant-via", "dummy-fill", "litho-aware-timing", "restricted-rules", "dpt-decomposition"} {
		o := byName[name]
		if o.Err != nil {
			t.Errorf("%s: collateral failure: %v", name, o.Err)
		}
		if len(o.Metrics) == 0 {
			t.Errorf("%s: no metrics", name)
		}
	}
	if hit, _, _ := sc.Hits(); hit == 0 {
		t.Errorf("no hits on a partially-degraded scorecard:\n%s", sc.Table())
	}

	// JSON carries the typed taxonomy out to dashboards.
	b, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, r := range rows {
		if k, ok := r["errorKind"].(string); ok {
			kinds[r["technique"].(string)] = k
		}
	}
	if kinds["model-opc"] != "panic" || kinds["sraf"] != "timeout" {
		t.Errorf("JSON errorKind wrong: %v", kinds)
	}
}

// TestHookErrorSkipsEvaluator: a Config.Hook error fails the task it
// ran in, exactly as the evaluator's own error would, and the
// evaluator behind it never runs.
func TestHookErrorSkipsEvaluator(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	evaluated := func(name string) int64 {
		return obs.Default().Snapshot().Histograms["dfm."+name+".total.ns"].Count
	}
	before := map[string]int64{}
	for _, name := range Techniques() {
		before[name] = evaluated(name)
	}
	hookErr := errors.New("injected")
	sc := RunAllConfig(context.Background(), tech.N45(), 11, Config{
		Parallel: 2,
		Hook:     func(ctx context.Context, technique string) error { return hookErr },
	})
	if len(sc.Outcomes) != 8 {
		t.Fatalf("scorecard incomplete: %d outcomes", len(sc.Outcomes))
	}
	for _, o := range sc.Outcomes {
		if !errors.Is(o.Err, hookErr) || o.Verdict != Hype {
			t.Errorf("%s: err %v verdict %v, want the hook's error, HYPE", o.Technique, o.Err, o.Verdict)
		}
		if n := evaluated(o.Technique) - before[o.Technique]; n != 0 || len(o.Metrics) != 0 {
			t.Errorf("%s: evaluator ran %d times behind a failing hook (%d metrics)", o.Technique, n, len(o.Metrics))
		}
	}
}

// blockTechniques are the rows that read a workload's block.
var blockTechniques = []string{"redundant-via", "dummy-fill", "dpt-decomposition"}

// blocksGenerated reads the GenerateBlock counter.
func blocksGenerated() int64 { return obs.Default().Snapshot().Counters["layout.block.generated"] }

// TestRunAllBuildsEachBlockOnce: a scorecard seed generates three
// blocks, its own and drc-plus's two, and renders into seven grids,
// whatever the pool size, and the scorecard does not depend on it. The block the three block rows share
// is read-only: after the run it hashes as a fresh generation does.
func TestRunAllBuildsEachBlockOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("two full scorecards are slow")
	}
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	ctx, tt := context.Background(), tech.N45()
	hash := func(flat []layout.Shape) [32]byte { return sha256.Sum256(fmt.Append(nil, flat)) }
	opts := DefaultBlock()
	opts.Seed = 11
	fresh, err := flatBlock(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cards []*Scorecard
	for _, parallel := range []int{1, 8} {
		w := newWorkload(tt, 11, DefaultBlock())
		before := obs.Default().Snapshot().Counters
		sc := runAll(ctx, tt, w, Config{Parallel: parallel})
		after := obs.Default().Snapshot().Counters
		if n := after["layout.block.generated"] - before["layout.block.generated"]; n != 3 {
			t.Errorf("Parallel %d: %d blocks generated, want 3", parallel, n)
		}
		// The renders of a seed land in seven grids: one for model-opc,
		// one for litho-aware-timing, one for each of restricted-rules'
		// two CD losses and three for sraf.
		if n, m := after["litho.raster.grid.new"]-before["litho.raster.grid.new"], after["litho.raster.cache.miss"]-before["litho.raster.cache.miss"]; n != 7 || m != 68 {
			t.Errorf("Parallel %d: %d raster misses into %d new grids, want 68 into 7", parallel, m, n)
		}
		for i := range sc.Outcomes {
			if sc.Outcomes[i].Err != nil {
				t.Fatalf("Parallel %d: %s: %v", parallel, sc.Outcomes[i].Technique, sc.Outcomes[i].Err)
			}
			sc.Outcomes[i].Runtime = 0
		}
		if flat, err := w.block(); err != nil || hash(flat) != hash(fresh) {
			t.Errorf("Parallel %d: the shared block changed under the run (err %v)", parallel, err)
		}
		cards = append(cards, sc)
	}
	if !reflect.DeepEqual(cards[0], cards[1]) {
		t.Errorf("the scorecard at Parallel 1 differs from Parallel 8:\n%s\n%s", cards[0].Detail(), cards[1].Detail())
	}
}

// TestGenerationFailureIsTerminal: a workload that cannot be generated
// fails its technique once, as a workload error that names the seed the
// outcome is labelled with. A workload shared by the block rows fails
// each of them so, from one generation; one whose generation panics
// fails each as a panic.
func TestGenerationFailureIsTerminal(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	tt := tech.N45()
	shared := newWorkload(tt, 42, layout.BlockOpts{Rows: 0, RowWidth: 10000})
	panicking := newWorkload(nil, 42, DefaultBlock())
	before := blocksGenerated()
	for _, name := range blockTechniques {
		d, _ := techniqueNamed(name)
		if o := d.evaluate(context.Background(), tt, shared); !errors.Is(o.Err, harness.ErrWorkload) || !strings.Contains(o.Err.Error(), "42") {
			t.Errorf("%s on an ungeneratable shared block: err = %v, want a workload error naming seed 42", name, o.Err)
		}
		r := harness.Run(context.Background(), []harness.Task{{Name: name, Run: func(ctx context.Context, _ int) (any, error) {
			o := d.evaluate(ctx, tt, panicking)
			return o, o.Err
		}}}, harness.Options{})[0]
		if !errors.Is(r.Err, harness.ErrPanic) {
			t.Errorf("%s on a block whose generation panics: err = %v, want a panic", name, r.Err)
		}
	}
	if n := blocksGenerated() - before; n != 2 {
		t.Errorf("%d generations for two shared blocks, want 2", n)
	}

	task, err := TechniqueTask(tech.N45(), "redundant-via", 42, layout.BlockOpts{Rows: 0, RowWidth: 10000})
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	run := task.Run
	task.Run = func(ctx context.Context, _ int) (any, error) {
		runs.Add(1)
		return run(ctx, 0)
	}
	r := harness.Run(context.Background(), []harness.Task{task}, harness.Options{})[0]
	if n := runs.Load(); n != 1 {
		t.Errorf("evaluator ran %d times, want 1", n)
	}
	if !errors.Is(r.Err, harness.ErrWorkload) {
		t.Errorf("err = %v, want a workload error", r.Err)
	}
	if r.Err == nil || !strings.Contains(r.Err.Error(), "42") {
		t.Errorf("err = %v, want it to name seed 42", r.Err)
	}
}

// TestOutcomeOf holds the one fold from a harness result to an outcome
// that the scorecard and dfmd share.
func TestOutcomeOf(t *testing.T) {
	fault := &harness.Error{Kind: harness.KindTimeout, Technique: "sraf", Err: context.DeadlineExceeded}
	judged := Outcome{Technique: "sraf", Metrics: []Metric{{Name: "cd", Before: 2, After: 1, Primary: true}},
		Runtime: time.Second, Verdict: Hit, Err: context.DeadlineExceeded}
	cases := []struct {
		name string
		res  harness.Result
		want Outcome
	}{
		{"an outcome", harness.Result{Name: "sraf", Value: Outcome{Technique: "sraf", Runtime: time.Second, Verdict: Hit}, Runtime: time.Minute},
			Outcome{Technique: "sraf", Runtime: time.Second, Verdict: Hit}},
		{"a tile result", harness.Result{Name: "tile/drc", Value: &tiling.TileResult{}, Runtime: time.Minute},
			Outcome{Technique: "tile/drc", Runtime: time.Minute}},
		{"nil with an error", harness.Result{Name: "sraf", Err: fault, Runtime: time.Minute},
			Outcome{Technique: "sraf", Runtime: time.Minute, Verdict: Hype, Err: fault}},
		{"an outcome with an error", harness.Result{Name: "sraf", Value: judged, Err: fault, Runtime: time.Minute},
			Outcome{Technique: "sraf", Metrics: judged.Metrics, Runtime: time.Second, Verdict: Hype, Err: fault}},
	}
	for _, c := range cases {
		if got := OutcomeOf(c.res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: OutcomeOf = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestRunAllPreCanceled: a canceled run still yields a complete
// scorecard — every technique drains to a structured canceled
// outcome instead of evaluating.
func TestRunAllPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	sc := RunAllConfig(ctx, tech.N45(), 11, Config{Parallel: 2})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("canceled run still evaluated: %v", elapsed)
	}
	if len(sc.Outcomes) != 8 {
		t.Fatalf("scorecard incomplete after cancel: %d", len(sc.Outcomes))
	}
	for _, o := range sc.Outcomes {
		if !errors.Is(o.Err, harness.ErrCanceled) {
			t.Errorf("%s: err = %v, want canceled", o.Technique, o.Err)
		}
	}
}

// cancelAt is a context whose Err reports context.Canceled from its
// k-th call on, closing Done at that call: a cancellation that lands on
// a chosen checkpoint, with no clock. With k 0 it never cancels and
// only counts the calls.
type cancelAt struct {
	context.Context // Background: no deadline, no values
	k               int64
	calls           atomic.Int64
	once            sync.Once
	done            chan struct{}
}

func newCancelAt(k int64) *cancelAt {
	return &cancelAt{Context: context.Background(), k: k, done: make(chan struct{})}
}

func (c *cancelAt) Done() <-chan struct{} { return c.done }

func (c *cancelAt) Err() error {
	if n := c.calls.Add(1); c.k > 0 && n >= c.k {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

// TestEvalCancellationMidFlight proves the litho inner loops observe
// cancellation: a heavy evaluator (SRAF runs a 65-condition
// focus-exposure matrix) stops at a checkpoint mid-simulation once
// its context dies, returning the context error instead of finishing
// the sweep. Every checkpoint on its path is a ctx.Err call, so an
// uncancelled run counts them, and the context then dies at the second
// and at the last.
func TestEvalCancellationMidFlight(t *testing.T) {
	sraf, _ := techniqueNamed("sraf")
	count := newCancelAt(0)
	if o := sraf.evaluate(count, tech.N45(), newWorkload(tech.N45(), 0, DefaultBlock())); o.Err != nil {
		t.Fatalf("uncancelled run: %v", o.Err)
	}
	last := count.calls.Load()
	if last < 2 {
		t.Fatalf("an uncancelled run passed %d checkpoints, want at least 2", last)
	}
	t.Logf("an uncancelled run passes %d checkpoints", last)
	for _, k := range []int64{2, last} {
		if o := sraf.evaluate(newCancelAt(k), tech.N45(), newWorkload(tech.N45(), 0, DefaultBlock())); !errors.Is(o.Err, context.Canceled) {
			t.Errorf("cancelled at checkpoint %d of %d: err = %v, want context.Canceled", k, last, o.Err)
		}
	}
}
