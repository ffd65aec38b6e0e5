package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFaultsFireInPlanOrderThenClear(t *testing.T) {
	e1, e2 := errors.New("first"), errors.New("second")
	s := New().
		Plan("tech", Fault{Err: e1}).
		Plan("tech", Fault{Err: e2})
	ctx := context.Background()
	if err := s.Hook(ctx, "tech"); !errors.Is(err, e1) {
		t.Fatalf("first activation = %v", err)
	}
	if err := s.Hook(ctx, "tech"); !errors.Is(err, e2) {
		t.Fatalf("second activation = %v", err)
	}
	if err := s.Hook(ctx, "tech"); err != nil {
		t.Fatalf("exhausted plan still firing: %v", err)
	}
	if n := len(s.plans["tech"]); n != 0 {
		t.Fatalf("bookkeeping: remaining=%d", n)
	}
}

func TestTimesExpandsActivations(t *testing.T) {
	e := errors.New("transient")
	s := New().Plan("tech", Fault{Err: e, Times: 3})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := s.Hook(ctx, "tech"); !errors.Is(err, e) {
			t.Fatalf("activation %d = %v", i, err)
		}
	}
	if err := s.Hook(ctx, "tech"); err != nil {
		t.Fatalf("fault fired beyond Times: %v", err)
	}
}

func TestUnplannedTechniqueUnaffected(t *testing.T) {
	s := New().Plan("other", Fault{PanicMsg: "boom"})
	if err := s.Hook(context.Background(), "tech"); err != nil {
		t.Fatalf("clean technique got fault: %v", err)
	}
	if n := len(s.plans["other"]); n != 1 {
		t.Fatalf("another technique's plan was consumed: remaining=%d", n)
	}
}

func TestPanicFault(t *testing.T) {
	s := New().Plan("tech", Fault{PanicMsg: "injected crash"})
	defer func() {
		if r := recover(); r != "injected crash" {
			t.Fatalf("recover = %v", r)
		}
	}()
	s.Hook(context.Background(), "tech")
	t.Fatal("hook did not panic")
}

func TestDelayHonorsContext(t *testing.T) {
	s := New().Plan("tech", Fault{Delay: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Hook(ctx, "tech")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delay did not yield to ctx: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("delay ignored cancellation")
	}
}

func TestBlockingDelayIgnoresContext(t *testing.T) {
	s := New().Plan("tech", Fault{Delay: 50 * time.Millisecond, Block: true})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Hook(ctx, "tech"); err != nil {
		t.Fatalf("blocking delay returned error: %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatalf("blocking delay yielded to ctx early")
	}
}
