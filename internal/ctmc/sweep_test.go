// Solver tests on the paper's chains live in an external test package:
// they build the rpc and streaming chains through internal/models, which
// ctmc itself cannot import (models → measure → ctmc).
package ctmc_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
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

// TestSteadyStateIgnoresGOMAXPROCS pins that a solve is sequential: on
// components of 48 to 1155 states, a default solve records one
// Gauss-Seidel attempt and its bits do not depend on how many cores the
// runtime has.
func TestSteadyStateIgnoresGOMAXPROCS(t *testing.T) {
	chains := map[string]*ctmc.CTMC{
		"rpc":            rpcChain(t),
		"streaming":      streamingChain(t),
		"streaming-full": fullStreamingChain(t),
	}
	for name, c := range chains {
		var ref []float64
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			pi, trace, err := c.SteadyStateTraced(ctmc.SolveOptions{})
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("%s: GOMAXPROCS=%d: %v", name, procs, err)
			}
			if len(trace.Attempts) != 1 || trace.Attempts[0].Sweep != ctmc.SweepGaussSeidel {
				t.Errorf("%s: GOMAXPROCS=%d: attempts %+v, want one gauss-seidel attempt", name, procs, trace.Attempts)
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

// TestSteadyStateMatchesGTH checks the iterative solve against the exact
// GTH elimination of the bottom component, to 1e-9 relative per state: on
// random chains of 2 to 200 states, and on the Fig. 3 rpc chain at the
// swept shutdown timeouts and out to 1e-4 ms and 1e5 ms.
func TestSteadyStateMatchesGTH(t *testing.T) {
	check := func(name string, c *ctmc.CTMC) {
		t.Helper()
		pi, err := c.SteadyState(ctmc.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := ctmc.GTHSteadyStateForTest(t, c)
		for s := range want {
			if math.Abs(pi[s]-want[s]) > 1e-9*want[s] {
				t.Fatalf("%s: state %d: %v, GTH %v (rel %.3g)", name, s, pi[s], want[s], math.Abs(pi[s]-want[s])/want[s])
			}
		}
	}
	r := rand.New(rand.NewSource(11))
	for n := 2; n <= 200; n++ {
		check(fmt.Sprintf("random-%d", n), ctmc.RandomChainForTest(t, r, n))
	}
	c := rpcParamChain(t)
	for _, T := range []float64{1e-4, 0.5, 1, 2, 3, 5, 7.5, 10, 12.5, 15, 20, 25, 1e5} {
		if err := c.Rebind([]float64{1 / T}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("rpc-timeout-%g", T), c)
	}
}

// TestGaussSeidelConvergenceErrorSweep checks a failing solve on the
// 168-state streaming component reports the exhausted budget and names
// Gauss-Seidel in its message: there is no retry under another scheme.
func TestGaussSeidelConvergenceErrorSweep(t *testing.T) {
	c := streamingChain(t)
	_, err := c.SteadyState(ctmc.SolveOptions{MaxIterations: 2})
	if !errors.Is(err, ctmc.ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	var ce *ctmc.ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConvergenceError, got %T", err)
	}
	if ce.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2", ce.Iterations)
	}
	if msg := ce.Error(); !strings.Contains(msg, "gauss-seidel sweep") {
		t.Errorf("message %q should name the gauss-seidel sweep", msg)
	}
}
