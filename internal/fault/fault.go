// Package fault defines the typed failures of the pipeline's
// fault-tolerance layer, the one worker pool (Pool) that runs sweep
// chunks, simulation replications and experiment points, the
// panic-recovery helper for work outside it (Guard), and the fork-join
// helper that carries a panic back to the goroutine that forked (Both).
//
// Two failure families live here because every layer (lts, ctmc, sim,
// core) produces them and no layer may import another for its error
// types:
//
//   - CanceledError: cooperative cancellation observed at a poll point.
//     Workers poll at level/iteration/point boundaries, so
//     cancellation is prompt but never changes the floats of work that
//     already completed.
//   - WorkerPanicError: a panic recovered inside Pool or Guard, carrying
//     the worker index, the task identity, and the stack — the process
//     survives, and the lowest task index wins the attribution, matching
//     Pool's lowest-index error rule.
package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrWorkerPanic is the sentinel every WorkerPanicError matches via
// errors.Is, so callers can classify recovered panics without knowing the
// pool they came from.
var ErrWorkerPanic = errors.New("worker panicked")

// CanceledError reports that a computation observed its context's
// cancellation at a poll point and stopped. It wraps the context's error
// (context.Canceled or context.DeadlineExceeded), so
// errors.Is(err, context.Canceled) keeps working through any nesting.
type CanceledError struct {
	// Phase names the interrupted computation ("lts.generate",
	// "ctmc.steady-state", "ctmc.transient", "sim", "core.sweep").
	Phase string
	// Point is the sweep-point or replication index being processed when
	// the cancellation was observed, or -1 when not applicable.
	Point int
	// Iteration is the iteration, BFS level, or event count at the poll
	// point that observed the cancellation, or -1 when not applicable.
	Iteration int
	// Err is the context's reported cause.
	Err error
}

// Error implements the error interface.
func (e *CanceledError) Error() string {
	msg := fmt.Sprintf("%s canceled", e.Phase)
	if e.Point >= 0 {
		msg += fmt.Sprintf(" at point %d", e.Point)
	}
	if e.Iteration >= 0 {
		msg += fmt.Sprintf(" at iteration %d", e.Iteration)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the context error to errors.Is/As.
func (e *CanceledError) Unwrap() error { return e.Err }

// Check polls ctx at a cancellation point: it returns nil when ctx is nil
// or still live, and a *CanceledError identifying the phase, point, and
// iteration otherwise. Pass -1 for an inapplicable point or iteration.
func Check(ctx context.Context, phase string, point, iteration int) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return &CanceledError{Phase: phase, Point: point, Iteration: iteration, Err: ctx.Err()}
	default:
		return nil
	}
}

// WorkerPanicError reports a panic recovered inside a worker pool. The
// pool survives, records the error under its usual lowest-task-index
// attribution, and surfaces it like any other task failure.
type WorkerPanicError struct {
	// Pool names the pool ("lts.generate", "core.sweep", "sim",
	// "experiments").
	Pool string
	// Worker is the index of the worker that recovered the panic (0 on
	// the caller's goroutine, which is Pool's worker 0).
	Worker int
	// Task identifies the panicked task ("point 3", "state 7", …).
	Task string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements the error interface.
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("%s: worker %d panicked on %s: %v", e.Pool, e.Worker, e.Task, e.Value)
}

// Unwrap exposes the panic value when it was itself an error (panics of
// the panic(err) form), so errors.Is/As see through the recovery.
func (e *WorkerPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Is matches the ErrWorkerPanic sentinel.
func (e *WorkerPanicError) Is(target error) bool { return target == ErrWorkerPanic }

// Guard runs fn and converts a panic into a *WorkerPanicError for the
// given pool, worker, and task: the recovery of Pool's tasks, for work
// that runs outside a pool.
func Guard(pool string, worker int, task string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &WorkerPanicError{
				Pool:   pool,
				Worker: worker,
				Task:   task,
				Value:  v,
				Stack:  debug.Stack(),
			}
		}
	}()
	return fn()
}

// Both runs f on a new goroutine and g on the caller's, and returns once
// both have. A panic in f is raised again on the caller's goroutine, where
// a Guard up the stack recovers it, instead of ending the process. If g
// panics, Both waits for f and lets g's panic unwind with its own stack;
// when both panic, g's panic is the one raised and f's is dropped.
func Both(f, g func()) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	gReturned := false
	defer func() {
		if v := <-done; v != nil && gReturned {
			panic(v)
		}
	}()
	g()
	gReturned = true
}
