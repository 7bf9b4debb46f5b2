package ctmc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lts"
	"repro/internal/rates"
)

// referenceGS is a plain scalar Gauss-Seidel steady-state solve written
// independently of the eight-lane kernel: the bottom component's rows in
// the solve plan's order (every such row has a positive exit rate), in-edges
// gathered from Rows in that order, the guarded max relative change, and
// one sum/reciprocal/multiply normalization per sweep, from the uniform
// start. It returns the distribution and the sweep count at convergence,
// or nil and 0 when the budget runs out.
func referenceGS(c *CTMC, tol float64, maxIter int) ([]float64, int) {
	p, _ := c.ensurePlan()
	local := make(map[int]int, len(p.target))
	for j, s := range p.target {
		local[s] = j
	}
	inFrom, inRate := make([][]int, len(p.target)), make([][]float64, len(p.target))
	x := make([]float64, len(p.target))
	for i, s := range p.target {
		for _, e := range c.Rows[s] {
			if j, ok := local[e.Col]; ok {
				inFrom[j], inRate[j] = append(inFrom[j], i), append(inRate[j], e.Rate)
			}
		}
		x[i] = 1 / float64(len(p.target))
	}
	for iter := 1; iter <= maxIter; iter++ {
		maxDelta, total := 0.0, 0.0
		for j, s := range p.target {
			inflow := 0.0
			for k, from := range inFrom[j] {
				inflow += x[from] * inRate[j][k]
			}
			next := inflow * (1 / c.Exit[s])
			d, m := math.Abs(next-x[j]), math.Max(next, 1e-300)
			if d > maxDelta*m*residualGuard && d/m > maxDelta {
				maxDelta = d / m
			}
			x[j] = next
			total += next
		}
		for j := range x {
			x[j] *= 1 / total
		}
		if maxDelta < tol {
			pi := make([]float64, c.N)
			for j, s := range p.target {
				pi[s] = x[j]
			}
			return pi, iter
		}
	}
	return nil, 0
}

// gth solves the stationary distribution of an irreducible chain exactly
// by the Grassmann–Taksar–Heyman elimination: a is the dense n×n
// row-major rate matrix (a[i·n+j] = rate i→j; the diagonal is never
// read) and is overwritten, y receives the distribution. GTH is
// subtraction-free — every update adds products of nonnegative numbers —
// so it is stable on stiff chains, and it is one fixed sequential
// elimination order. It reports false when an elimination step finds no
// outflow (the chain is reducible), in which case y is meaningless.
func gth(n int, a, y []float64) bool {
	for k := n - 1; k >= 1; k-- {
		s := 0.0
		for j := 0; j < k; j++ {
			s += a[k*n+j]
		}
		if !(s > 0) {
			return false
		}
		inv := 1 / s
		for i := 0; i < k; i++ {
			aik := a[i*n+k] * inv
			a[i*n+k] = aik
			if aik != 0 {
				for j := 0; j < k; j++ {
					if j != i {
						a[i*n+j] += aik * a[k*n+j]
					}
				}
			}
		}
	}
	y[0] = 1
	total := 1.0
	for k := 1; k < n; k++ {
		v := 0.0
		for i := 0; i < k; i++ {
			v += y[i] * a[i*n+k]
		}
		y[k] = v
		total += v
	}
	inv := 1 / total
	for k := 0; k < n; k++ {
		y[k] *= inv
	}
	return true
}

// GTHSteadyStateForTest is the direct-solve oracle of the steady state:
// the dense generator of the chain's reachable bottom component, solved
// by gth and scattered back to tangible-state order. It shares no code
// with the iterative kernel.
func GTHSteadyStateForTest(t *testing.T, c *CTMC) []float64 {
	t.Helper()
	p, err := c.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.target)
	local := make(map[int]int, n)
	for i, s := range p.target {
		local[s] = i
	}
	a := make([]float64, n*n)
	for i, s := range p.target {
		for _, e := range c.Rows[s] {
			if j, ok := local[e.Col]; ok {
				a[i*n+j] += e.Rate
			}
		}
	}
	y := make([]float64, n)
	if !gth(n, a, y) {
		t.Fatal("gth: bottom component is reducible")
	}
	pi := make([]float64, c.N)
	for i, s := range p.target {
		pi[s] = y[i]
	}
	return pi
}

// RandomChainForTest hands randomChain to the external tests.
func RandomChainForTest(t *testing.T, r *rand.Rand, n int) *CTMC { return randomChain(t, r, n) }

// randomChain builds a strongly connected chain on n states — a ring
// plus random chords, all at random rates — entered from one transient
// start state, so the bottom component is a proper subset of the chain.
func randomChain(t *testing.T, r *rand.Rand, n int) *CTMC {
	t.Helper()
	l := lts.New(n + 1)
	l.Initial = n
	a := l.LabelIndex("a")
	rate := func() rates.Rate { return rates.ExpRate(0.1 + 10*r.Float64()) }
	l.AddTransition(n, r.Intn(n), a, rate())
	for s := 0; s < n; s++ {
		l.AddTransition(s, (s+1)%n, a, rate())
		for k := 0; k < 2; k++ {
			if to := r.Intn(n); to != s && to != (s+1)%n {
				l.AddTransition(s, to, a, rate())
			}
		}
	}
	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSteadyStateMatchesScalarReference pins the one-lane batch that
// every SteadyState runs to referenceGS bit for bit — vector and sweep
// count — on random small chains, on a hand-assembled chain with no rate
// slots or contribution terms.
func TestSteadyStateMatchesScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type named struct {
		name string
		c    *CTMC
	}
	// 0 ⇄ 1 ⇄ 2 with a 2 → 0 shortcut, assembled without Build.
	chains := []named{{"hand-assembled", &CTMC{
		N: 3,
		Rows: [][]Entry{
			{{Col: 1, Rate: 2}},
			{{Col: 0, Rate: 0.5}, {Col: 2, Rate: 3}},
			{{Col: 0, Rate: 1.25}, {Col: 1, Rate: 0.75}},
		},
		Exit:    []float64{2, 3.5, 2},
		Initial: []float64{1, 0, 0},
	}}}
	for i := 0; i < 20; i++ {
		chains = append(chains, named{fmt.Sprintf("random-%d", i), randomChain(t, r, 2+r.Intn(11))})
	}
	for _, nc := range chains {
		name, c := nc.name, nc.c
		pi, trace, err := c.SteadyStateTraced(SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, iters := referenceGS(c, 1e-12, 200000)
		if got := trace.Attempts[0].Iterations; got != iters {
			t.Errorf("%s: %d sweeps, reference %d", name, got, iters)
		}
		for s := range want {
			if math.Float64bits(pi[s]) != math.Float64bits(want[s]) {
				t.Fatalf("%s: state %d: %v, reference %v", name, s, pi[s], want[s])
			}
		}
	}
}
