package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	if err := Check(nil, "x", -1, -1); err != nil {
		t.Fatalf("nil context: got %v", err)
	}
	if err := Check(context.Background(), "x", -1, -1); err != nil {
		t.Fatalf("live context: got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Check(ctx, "ctmc.steady-state", 3, 42)
	if err == nil {
		t.Fatal("canceled context: got nil")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T, want *CanceledError", err)
	}
	if ce.Phase != "ctmc.steady-state" || ce.Point != 3 || ce.Iteration != 42 {
		t.Fatalf("wrong attribution: %+v", ce)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("errors.Is(err, context.Canceled) is false")
	}
	want := "ctmc.steady-state canceled at point 3 at iteration 42: context canceled"
	if got := err.Error(); got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
}

func TestCanceledErrorOmitsInapplicableFields(t *testing.T) {
	e := &CanceledError{Phase: "lts.generate", Point: -1, Iteration: -1, Err: context.DeadlineExceeded}
	got := e.Error()
	if strings.Contains(got, "point") || strings.Contains(got, "iteration") {
		t.Fatalf("message %q should omit point/iteration", got)
	}
	if !errors.Is(e, context.DeadlineExceeded) {
		t.Fatal("deadline cause not visible to errors.Is")
	}
}

func TestGuardRecoversPanic(t *testing.T) {
	err := Guard("lts.generate", 2, "state 7", func() error { panic("boom") })
	if err == nil {
		t.Fatal("got nil error from panicking fn")
	}
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("got %T, want *WorkerPanicError", err)
	}
	if wpe.Pool != "lts.generate" || wpe.Worker != 2 || wpe.Task != "state 7" || wpe.Value != "boom" {
		t.Fatalf("wrong attribution: %+v", wpe)
	}
	if len(wpe.Stack) == 0 {
		t.Fatal("no stack recorded")
	}
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatal("errors.Is(err, ErrWorkerPanic) is false")
	}
	want := "lts.generate: worker 2 panicked on state 7: boom"
	if got := err.Error(); got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
}

func TestGuardPassesThroughResults(t *testing.T) {
	if err := Guard("p", 0, "t", func() error { return nil }); err != nil {
		t.Fatalf("nil-returning fn: got %v", err)
	}
	sentinel := errors.New("ordinary failure")
	if err := Guard("p", 0, "t", func() error { return sentinel }); err != sentinel {
		t.Fatalf("error-returning fn: got %v, want the error itself", err)
	}
}

func TestWorkerPanicUnwrapsErrorValues(t *testing.T) {
	inner := fmt.Errorf("wrapped: %w", context.Canceled)
	err := Guard("core.sweep", 1, "point 4", func() error { panic(inner) })
	if !errors.Is(err, context.Canceled) {
		t.Fatal("panic(err) value not visible through Unwrap")
	}
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) || wpe.Unwrap() != inner {
		t.Fatal("Unwrap should return the panic's error value")
	}
	// Non-error panic values unwrap to nil.
	plain := &WorkerPanicError{Value: 42}
	if plain.Unwrap() != nil {
		t.Fatal("non-error panic value should unwrap to nil")
	}
}

// TestBothRaisesForkedPanic runs a panicking f beside g under Guard: g
// still completes, and the panic surfaces on the caller's goroutine as a
// WorkerPanicError rather than ending the process. A panic in g is held
// until f has finished, and wins when both sides panic.
func TestBothRaisesForkedPanic(t *testing.T) {
	ranG := false
	err := Guard("pair", 0, "", func() error {
		Both(func() { panic("boom") }, func() { ranG = true })
		return nil
	})
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) || wpe.Value != "boom" || !ranG {
		t.Fatalf("Both with a panicking f: err %v, g ran %t", err, ranG)
	}

	ranF := false
	err = Guard("pair", 0, "", func() error {
		Both(func() { ranF = true }, func() { panic("bang") })
		return nil
	})
	if !errors.As(err, &wpe) || wpe.Value != "bang" || !ranF {
		t.Fatalf("Both with a panicking g: err %v, f ran %t", err, ranF)
	}

	err = Guard("pair", 0, "", func() error {
		Both(func() { panic("boom") }, func() { panic("bang") })
		return nil
	})
	if !errors.As(err, &wpe) || wpe.Value != "bang" {
		t.Fatalf("Both with both sides panicking: err %v, want g's panic", err)
	}

	a, b := 0, 0
	Both(func() { a = 1 }, func() { b = 2 })
	if a != 1 || b != 2 {
		t.Fatalf("Both returned before both ran: a=%d b=%d", a, b)
	}
}
