// Round-trip tests for the solver's error chains: every typed error must
// keep its sentinels reachable through errors.Is/As at any nesting depth
// the fault-tolerance layer can produce, and the messages must carry the
// diagnostic fields.
package ctmc_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/fault"
)

func convergenceFixture() *ctmc.ConvergenceError {
	return &ctmc.ConvergenceError{
		Iterations: 1234,
		Residual:   0.5,
		Tolerance:  1e-12,
		Point:      7,
		Params:     []float64{0.25},
	}
}

func TestConvergenceErrorChain(t *testing.T) {
	ce := convergenceFixture()
	if !errors.Is(ce, ctmc.ErrNoConvergence) {
		t.Error("ConvergenceError does not unwrap to ErrNoConvergence")
	}
	var got *ctmc.ConvergenceError
	if !errors.As(error(ce), &got) || got.Iterations != 1234 {
		t.Error("errors.As lost the ConvergenceError")
	}
	msg := ce.Error()
	for _, want := range []string{"1234 iterations", "gauss-seidel", "sweep point 7", "[0.25]"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
	// Outside a sweep (Point < 0) the point suffix must disappear.
	solo := &ctmc.ConvergenceError{Point: -1}
	if strings.Contains(solo.Error(), "sweep point") {
		t.Errorf("solo message %q should not mention a sweep point", solo.Error())
	}
}

func TestBatchPointErrorChain(t *testing.T) {
	ce := convergenceFixture()
	bpe := &ctmc.BatchPointError{Point: 3, Err: ce}
	if !errors.Is(bpe, ctmc.ErrNoConvergence) {
		t.Error("BatchPointError does not forward ErrNoConvergence")
	}
	var gotCE *ctmc.ConvergenceError
	if !errors.As(error(bpe), &gotCE) || gotCE != ce {
		t.Error("errors.As through BatchPointError lost the ConvergenceError")
	}
	var gotBPE *ctmc.BatchPointError
	if !errors.As(error(bpe), &gotBPE) || gotBPE.Point != 3 {
		t.Error("errors.As lost the BatchPointError itself")
	}
	if !strings.Contains(bpe.Error(), "batch point 3") {
		t.Errorf("message %q missing the batch point", bpe.Error())
	}
}

func TestRebindErrorChain(t *testing.T) {
	structural := &ctmc.RebindError{Slot: 2, Value: 0}
	if !errors.Is(structural, ctmc.ErrStructuralRebind) {
		t.Error("structural RebindError does not unwrap to ErrStructuralRebind")
	}
	if !strings.Contains(structural.Error(), "slot 2") {
		t.Errorf("message %q missing the slot", structural.Error())
	}
	// A length mismatch is not a structural failure and must not match.
	length := &ctmc.RebindError{Slot: 0, Want: 1, Got: 3}
	if errors.Is(length, ctmc.ErrStructuralRebind) {
		t.Error("length-mismatch RebindError wrongly matches ErrStructuralRebind")
	}
	if !strings.Contains(length.Error(), "expects 1 slot values, got 3") {
		t.Errorf("message %q missing the counts", length.Error())
	}
}

func TestInvariantErrorChain(t *testing.T) {
	cause := errors.New("row sums drifted")
	ie := &ctmc.InvariantError{Err: cause}
	if !errors.Is(ie, cause) {
		t.Error("InvariantError does not unwrap to its cause")
	}
	if !strings.Contains(ie.Error(), "internal invariant violated") ||
		!strings.Contains(ie.Error(), "row sums drifted") {
		t.Errorf("message %q incomplete", ie.Error())
	}
}

// TestWorkerPanicNesting checks the deepest chain the fault-tolerance
// layer produces: a worker panicking with a typed solver error is
// recovered into a WorkerPanicError, and every sentinel of the panic
// value stays reachable through it.
func TestWorkerPanicNesting(t *testing.T) {
	ce := convergenceFixture()
	bpe := &ctmc.BatchPointError{Point: 1, Err: ce}
	err := fault.Guard("core.sweep", 2, "points 8-15", func() error {
		panic(bpe)
	})
	if !errors.Is(err, fault.ErrWorkerPanic) {
		t.Error("recovered panic does not match ErrWorkerPanic")
	}
	if !errors.Is(err, ctmc.ErrNoConvergence) {
		t.Error("ErrNoConvergence unreachable through the panic wrapper")
	}
	var gotCE *ctmc.ConvergenceError
	if !errors.As(err, &gotCE) || gotCE.Point != 7 {
		t.Error("ConvergenceError unreachable through the panic wrapper")
	}
	var wpe *fault.WorkerPanicError
	if !errors.As(err, &wpe) || wpe.Pool != "core.sweep" || wpe.Worker != 2 || wpe.Task != "points 8-15" {
		t.Errorf("panic attribution wrong: %+v", wpe)
	}
	for _, want := range []string{"core.sweep", "worker 2", "points 8-15"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("message %q missing %q", err.Error(), want)
		}
	}
}

// TestCanceledErrorNesting checks the cancellation chain: the typed
// wrapper keeps the context cause reachable and survives being wrapped
// again by a worker's panic guard.
func TestCanceledErrorNesting(t *testing.T) {
	ce := &fault.CanceledError{Phase: "core.sweep", Point: 4, Iteration: -1, Err: context.DeadlineExceeded}
	if !errors.Is(ce, context.DeadlineExceeded) {
		t.Error("CanceledError does not unwrap to its context cause")
	}
	msg := ce.Error()
	if !strings.Contains(msg, "core.sweep canceled") || !strings.Contains(msg, "point 4") {
		t.Errorf("message %q incomplete", msg)
	}
	if strings.Contains(msg, "iteration") {
		t.Errorf("message %q should omit the unset iteration", msg)
	}
	// A cancellation recovered from a panicking worker: both sentinels
	// must survive the double wrap.
	err := fault.Guard("core.sweep", 0, "point 4", func() error { panic(ce) })
	if !errors.Is(err, fault.ErrWorkerPanic) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("double-wrapped cancellation lost a sentinel: %v", err)
	}
}
