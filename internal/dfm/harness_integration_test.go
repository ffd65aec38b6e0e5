package dfm

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/tech"
)

// TestScorecardSurvivesTotalFaultStorm injects a fault into every
// technique — panics, hangs, transient and terminal errors — and
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

	start := time.Now()
	sc := RunAllConfig(context.Background(), tech.N45(), 11, Config{
		Parallel: 4,
		Timeout:  50 * time.Millisecond,
		Retries:  2,
		Backoff:  time.Millisecond,
		Hook:     fi.Hook,
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
	// The retryable faults outlasted Retries=2 (3 attempts), the
	// terminal ones must not have been retried.
	for _, o := range sc.Outcomes {
		switch o.Technique {
		case "sraf", "dpt-decomposition":
			if o.Attempts != 3 {
				t.Errorf("%s: attempts = %d, want 3", o.Technique, o.Attempts)
			}
		case "model-opc", "restricted-rules":
			if o.Attempts != 1 {
				t.Errorf("%s: terminal error retried (%d attempts)", o.Technique, o.Attempts)
			}
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
// inside, one fails transiently and recovers on a retried seed — and every
// other technique still reports a real verdict with real metrics.
func TestRunAllFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("full scorecard is slow")
	}
	fi := faultinject.New().
		Plan("model-opc", faultinject.Fault{PanicMsg: "injected opc crash"}).
		Plan("sraf", faultinject.Fault{Delay: time.Minute, Block: true}).
		Plan("drc-plus", faultinject.Fault{Err: harness.Workload(errors.New("transient workload hiccup"))})

	sc := RunAllConfig(context.Background(), tech.N45(), 11, Config{
		Parallel: 4,
		Timeout:  3 * time.Second,
		Retries:  1,
		Backoff:  time.Millisecond,
		Hook:     fi.Hook,
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
	if o := byName["drc-plus"]; o.Err != nil {
		t.Errorf("drc-plus did not recover from transient fault: %v", o.Err)
	} else if o.Attempts != 2 {
		t.Errorf("drc-plus attempts = %d, want 2", o.Attempts)
	} else if len(o.Metrics) == 0 {
		t.Errorf("drc-plus recovered without metrics")
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

// TestEvalCancellationMidFlight proves the litho inner loops observe
// cancellation: a heavy evaluator (SRAF runs a 65-condition
// focus-exposure matrix) stops at a checkpoint mid-simulation once
// its context dies, returning the context error instead of finishing
// the sweep. The evaluator keeps getting faster as the kernels
// improve, so the cancel delay walks down from a generous start until
// one lands mid-evaluation — the test only fails if no delay, down to
// firing the cancel immediately, is ever observed.
func TestEvalCancellationMidFlight(t *testing.T) {
	delays := []time.Duration{
		5 * time.Millisecond, 2 * time.Millisecond, time.Millisecond,
		500 * time.Microsecond, 100 * time.Microsecond,
		20 * time.Microsecond, 5 * time.Microsecond, 0,
	}
	for _, d := range delays {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(d, cancel)
		o := EvalSRAF(ctx, tech.N45())
		timer.Stop()
		cancel()
		if errors.Is(o.Err, context.Canceled) {
			return
		}
	}
	t.Fatalf("mid-flight cancel not observed at any delay down to 0")
}
