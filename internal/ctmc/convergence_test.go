package ctmc

import (
	"errors"
	"strings"
	"testing"
)

// TestConvergenceErrorDetails pins the typed solver failure: the error
// still matches ErrNoConvergence via errors.Is, and carries the iteration
// count and residual for diagnosis.
func TestConvergenceErrorDetails(t *testing.T) {
	c, err := Build(mm1k(20, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SteadyState(SolveOptions{MaxIterations: 2, Tolerance: 1e-15})
	if err == nil {
		t.Fatal("expected non-convergence with MaxIterations=2")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("errors.Is(err, ErrNoConvergence) = false for %v", err)
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("errors.As failed for %T: %v", err, err)
	}
	if ce.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2", ce.Iterations)
	}
	if ce.Residual <= ce.Tolerance {
		t.Errorf("Residual %g should exceed Tolerance %g", ce.Residual, ce.Tolerance)
	}
	if !strings.Contains(ce.Error(), "iterations") || !strings.Contains(ce.Error(), "residual") {
		t.Errorf("error text missing diagnostics: %q", ce.Error())
	}
	if !strings.Contains(ce.Error(), "gauss-seidel") {
		t.Errorf("error text missing the sweep: %q", ce.Error())
	}
}

// TestBuildDeterministicRows checks that the generator extraction is
// canonical: repeated builds of the same LTS produce identical row
// structure (column order included), which is what makes the downstream
// floating-point sweeps reproducible bit for bit.
func TestBuildDeterministicRows(t *testing.T) {
	build := func() *CTMC {
		c, err := Build(vanishingLTS())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := build()
	for trial := 0; trial < 5; trial++ {
		b := build()
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("row count differs: %d vs %d", len(a.Rows), len(b.Rows))
		}
		for s := range a.Rows {
			ra, rb := a.Rows[s], b.Rows[s]
			if len(ra) != len(rb) {
				t.Fatalf("state %d: %d entries vs %d", s, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Errorf("state %d entry %d: %+v vs %+v", s, i, ra[i], rb[i])
				}
			}
		}
		for i, v := range a.Exit {
			if b.Exit[i] != v {
				t.Errorf("exit[%d]: %v vs %v", i, v, b.Exit[i])
			}
		}
	}
}
