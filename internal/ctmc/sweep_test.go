// Sweep-mode comparison tests live in an external test package: they
// build the paper's rpc and streaming chains through internal/models,
// which ctmc itself cannot import (models → measure → ctmc).
package ctmc_test

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
)

func rpcChain(t *testing.T) *ctmc.CTMC {
	t.Helper()
	a, err := models.BuildRPCRevised(models.DefaultRPCParams())
	if err != nil {
		t.Fatal(err)
	}
	return chainOf(t, a)
}

func streamingChain(t *testing.T) *ctmc.CTMC {
	t.Helper()
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = 3, 3
	a, err := models.BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	return chainOf(t, a)
}

// fullStreamingChain builds the paper-scale streaming chain, whose
// recurrent component has 1155 states.
func fullStreamingChain(t *testing.T) *ctmc.CTMC {
	t.Helper()
	a, err := models.BuildStreaming(models.DefaultStreamingParams())
	if err != nil {
		t.Fatal(err)
	}
	return chainOf(t, a)
}

func chainOf(t *testing.T, a *aemilia.ArchiType) *ctmc.CTMC {
	t.Helper()
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctmc.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func steadyOrFatal(t *testing.T, c *ctmc.CTMC, opts ctmc.SolveOptions) []float64 {
	t.Helper()
	pi, err := c.SteadyState(opts)
	if err != nil {
		t.Fatalf("SteadyState(%+v): %v", opts, err)
	}
	return pi
}

// TestMultilevelMatchesGaussSeidel checks the two schemes agree on the
// paper's chains to within solver tolerance: they iterate differently but
// share the fixed point.
func TestMultilevelMatchesGaussSeidel(t *testing.T) {
	chains := map[string]*ctmc.CTMC{
		"rpc":       rpcChain(t),
		"streaming": streamingChain(t),
	}
	for name, c := range chains {
		gs := steadyOrFatal(t, c, ctmc.SolveOptions{Sweep: ctmc.SweepGaussSeidel})
		ml := steadyOrFatal(t, c, ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel})
		for s := range gs {
			diff := math.Abs(gs[s] - ml[s])
			if rel := diff / math.Max(math.Abs(gs[s]), 1e-12); rel > 1e-8 && diff > 1e-12 {
				t.Fatalf("%s: state %d: gauss-seidel %g vs multilevel %g (rel %g)", name, s, gs[s], ml[s], rel)
			}
		}
	}
}

// TestAutoResolvesGaussSeidel pins the static half of the SweepAuto rule:
// whatever the component size (48 to 1155 states here) and however many
// cores the runtime has, ResolveSolve reports Gauss-Seidel, and
// an auto solve's bits do not depend on GOMAXPROCS.
func TestAutoResolvesGaussSeidel(t *testing.T) {
	chains := map[string]*ctmc.CTMC{
		"rpc":            rpcChain(t),
		"streaming":      streamingChain(t),
		"eps":            epsChain(t),
		"streaming-full": fullStreamingChain(t),
	}
	for name, c := range chains {
		var ref []float64
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			r, err := c.ResolveSolve(ctmc.SolveOptions{})
			pi, serr := c.SteadyState(ctmc.SolveOptions{})
			runtime.GOMAXPROCS(old)
			if err != nil || serr != nil {
				t.Fatalf("%s: GOMAXPROCS=%d: %v / %v", name, procs, err, serr)
			}
			if r.Sweep != ctmc.SweepGaussSeidel {
				t.Errorf("%s: GOMAXPROCS=%d: resolved %v, want gauss-seidel", name, procs, r.Sweep)
			}
			if ref == nil {
				ref = pi
				continue
			}
			for s := range ref {
				if pi[s] != ref[s] {
					t.Fatalf("%s: GOMAXPROCS=%d: state %d: %v != %v (must be bit-identical)", name, procs, s, pi[s], ref[s])
				}
			}
		}
	}
}

// TestGaussSeidelConvergenceErrorSweep checks a failing solve reports the
// scheme that actually ran: a forced Gauss-Seidel solve fails as
// Gauss-Seidel (no silent multilevel retry outside auto), while auto mode
// on the same 168-state component retries with multilevel and reports that.
func TestGaussSeidelConvergenceErrorSweep(t *testing.T) {
	c := streamingChain(t)
	for _, tc := range []struct{ mode, ran ctmc.Sweep }{
		{ctmc.SweepGaussSeidel, ctmc.SweepGaussSeidel},
		{ctmc.SweepAuto, ctmc.SweepMultilevel},
	} {
		_, err := c.SteadyState(ctmc.SolveOptions{Sweep: tc.mode, MaxIterations: 2})
		if !errors.Is(err, ctmc.ErrNoConvergence) {
			t.Fatalf("%v: want ErrNoConvergence, got %v", tc.mode, err)
		}
		var ce *ctmc.ConvergenceError
		if !errors.As(err, &ce) {
			t.Fatalf("%v: want *ConvergenceError, got %T", tc.mode, err)
		}
		if ce.Sweep != tc.ran {
			t.Errorf("%v: Sweep = %v, want %v", tc.mode, ce.Sweep, tc.ran)
		}
		if ce.Iterations != 2 {
			t.Errorf("%v: Iterations = %d, want 2", tc.mode, ce.Iterations)
		}
	}
}
