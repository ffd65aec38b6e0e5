// Package faultinject is a deterministic fault-injection hook layer
// for the evaluation harness: plan panics, delays, and transient
// errors by technique name, then hand Set.Hook to harness.Options.
// Faults fire in plan order, a fixed number of times, with no
// randomness — the same plan produces the same failure sequence on
// every run, which is what makes degraded-mode behavior testable.
package faultinject

import (
	"context"
	"sync"
	"time"
)

// Fault is one planned failure. At most one action fires per
// activation, checked in order: Delay (if set), then PanicMsg, then
// Err. A pure-delay fault (no PanicMsg, nil Err) just slows the
// attempt down.
type Fault struct {
	// Delay stalls the attempt before acting.
	Delay time.Duration
	// Block makes Delay ignore context cancellation — a true hang
	// the harness can only abandon. When false the delay honors ctx
	// and returns ctx.Err() at the deadline, modeling a cooperative
	// evaluator that notices its budget expired.
	Block bool
	// PanicMsg, when non-empty, panics with this message.
	PanicMsg string
	// Err, when non-nil, is returned as the attempt's error. Wrap it
	// with harness.Workload to make it retryable.
	Err error
	// Times is how many consecutive activations this fault covers
	// (0 means 1).
	Times int
}

// Set is a concurrency-safe fault plan keyed by technique name.
type Set struct {
	mu    sync.Mutex
	plans map[string][]Fault
}

// New returns an empty fault set.
func New() *Set {
	return &Set{plans: make(map[string][]Fault)}
}

// Plan appends a fault for the named technique and returns the set
// for chaining. Each activation consumes one planned fault; once a
// technique's plan is exhausted its attempts run clean.
func (s *Set) Plan(name string, f Fault) *Set {
	n := f.Times
	if n < 1 {
		n = 1
	}
	f.Times = 1
	s.mu.Lock()
	for i := 0; i < n; i++ {
		s.plans[name] = append(s.plans[name], f)
	}
	s.mu.Unlock()
	return s
}

// Hook is a harness.Hook: it fires the next planned fault for the
// technique, if any.
func (s *Set) Hook(ctx context.Context, technique string, attempt int) error {
	s.mu.Lock()
	q := s.plans[technique]
	if len(q) == 0 {
		s.mu.Unlock()
		return nil
	}
	f := q[0]
	s.plans[technique] = q[1:]
	s.mu.Unlock()

	if f.Delay > 0 {
		if f.Block {
			time.Sleep(f.Delay)
		} else {
			t := time.NewTimer(f.Delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if f.PanicMsg != "" {
		panic(f.PanicMsg)
	}
	return f.Err
}
