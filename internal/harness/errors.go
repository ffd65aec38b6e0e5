// Package harness runs technique evaluators through a bounded,
// fault-tolerant worker pool: per-task deadlines, panic recovery,
// and a typed error taxonomy that downstream scorecards can render and
// serialize. Each task runs once, and a failure is reported as it
// happened, never re-run. A production DFM scoring flow evaluates
// thousands of rules under a hard wall-clock budget; one hung or
// crashing evaluator must degrade to a structured per-technique error,
// never to a dead process.
package harness

import (
	"errors"
	"fmt"
)

// Kind classifies a harness-level failure.
type Kind uint8

// Failure kinds. KindNone is the zero value of a non-harness error.
const (
	KindNone Kind = iota
	// KindTimeout: the evaluator exceeded its task deadline
	// (either abandoned mid-flight or returned ctx.Err() from a
	// cancellation checkpoint).
	KindTimeout
	// KindPanic: the evaluator panicked; the stack was captured.
	KindPanic
	// KindWorkload: synthetic workload generation failed for the
	// task's seed. Terminal, like every kind.
	KindWorkload
	// KindCanceled: the whole run was canceled before or during the
	// task.
	KindCanceled
)

func (k Kind) String() string {
	switch k {
	case KindTimeout:
		return "timeout"
	case KindPanic:
		return "panic"
	case KindWorkload:
		return "workload"
	case KindCanceled:
		return "canceled"
	}
	return "error"
}

// Sentinels for errors.Is matching against the taxonomy. A harness
// *Error matches the sentinel of its kind.
var (
	ErrTimeout  = errors.New("harness: evaluator timed out")
	ErrPanic    = errors.New("harness: evaluator panicked")
	ErrWorkload = errors.New("harness: workload generation failed")
	ErrCanceled = errors.New("harness: run canceled")
)

func sentinelOf(k Kind) error {
	switch k {
	case KindTimeout:
		return ErrTimeout
	case KindPanic:
		return ErrPanic
	case KindWorkload:
		return ErrWorkload
	case KindCanceled:
		return ErrCanceled
	}
	return nil
}

// Error is a classified evaluator failure. Technique is filled in by
// the runner when the task settles.
type Error struct {
	Kind      Kind
	Technique string
	// Stack is the recovered goroutine stack for KindPanic.
	Stack []byte
	Err   error
}

func (e *Error) Error() string {
	msg := e.Kind.String()
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *Error) Unwrap() error { return e.Err }

// Is matches the taxonomy sentinel of the error's kind, so callers
// can write errors.Is(err, harness.ErrTimeout).
func (e *Error) Is(target error) bool { return target == sentinelOf(e.Kind) }

// Workload wraps a workload-generation failure as a harness error.
func Workload(err error) error {
	return &Error{Kind: KindWorkload, Err: err}
}

// Workloadf is Workload with formatting.
func Workloadf(format string, args ...any) error {
	return Workload(fmt.Errorf(format, args...))
}

// KindOf returns the harness kind of the error, or KindNone for
// unclassified errors.
func KindOf(err error) Kind {
	var he *Error
	if errors.As(err, &he) {
		return he.Kind
	}
	return KindNone
}

// annotate stamps the technique name onto a harness error. It copies:
// the inner error may be shared across techniques (e.g. a reused fault
// plan), and results are written concurrently.
func annotate(err error, technique string) error {
	var he *Error
	if !errors.As(err, &he) {
		return err
	}
	cp := *he
	cp.Technique = technique
	return &cp
}
