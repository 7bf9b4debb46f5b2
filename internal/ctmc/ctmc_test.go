package ctmc

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/lts"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// edge is one transition of a test system in edge-list form.
type edge struct {
	src, dst int
	label    string
	rate     rates.Rate
}

// system assembles the system over n states from edges listed in any
// order, interning their labels in list order: it sorts the edges stably
// by source, in place, and hands each state's edges to a RowBuilder row
// in list order.
func system(n, initial int, edges []edge) *lts.LTS {
	syms := statespace.NewSymbols()
	for _, e := range edges {
		syms.Intern(e.label)
	}
	slices.SortStableFunc(edges, func(a, b edge) int { return cmp.Compare(a.src, b.src) })
	rows := statespace.NewRowBuilder()
	for s := range n {
		for ; len(edges) > 0 && edges[0].src == s; edges = edges[1:] {
			label, _ := syms.Lookup(edges[0].label)
			rows.Add(int32(edges[0].dst), int32(label), 0, edges[0].rate)
		}
		rows.EndRow()
	}
	return lts.New(syms, initial, rows.CSR())
}

// mm1k builds the LTS of an M/M/1/K queue: states 0..K, arrivals at rate
// lambda, services at rate mu.
func mm1k(k int, lambda, mu float64) *lts.LTS {
	var edges []edge
	for n := 0; n < k; n++ {
		edges = append(edges, edge{n, n + 1, "arrive", rates.ExpRate(lambda)})
	}
	for n := 1; n <= k; n++ {
		edges = append(edges, edge{n, n - 1, "serve", rates.ExpRate(mu)})
	}
	return system(k+1, 0, edges)
}

// analyticMM1K returns the steady-state distribution of M/M/1/K.
func analyticMM1K(k int, lambda, mu float64) []float64 {
	rho := lambda / mu
	pi := make([]float64, k+1)
	sum := 0.0
	for n := 0; n <= k; n++ {
		pi[n] = math.Pow(rho, float64(n))
		sum += pi[n]
	}
	for n := range pi {
		pi[n] /= sum
	}
	return pi
}

func TestSteadyStateMM1K(t *testing.T) {
	const k = 8
	lambda, mu := 2.0, 3.0
	c, err := Build(mm1k(k, lambda, mu))
	if err != nil {
		t.Fatal(err)
	}
	if c.N != k+1 {
		t.Fatalf("N = %d, want %d", c.N, k+1)
	}
	pi, _, err := c.SteadyStateTraced(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := analyticMM1K(k, lambda, mu)
	for n := 0; n <= k; n++ {
		ci := c.CTMCIndexOf(n)
		if math.Abs(pi[ci]-want[n]) > 1e-9 {
			t.Errorf("pi[%d] = %v, want %v", n, pi[ci], want[n])
		}
	}
}

func TestThroughputMM1K(t *testing.T) {
	const k = 8
	lambda, mu := 2.0, 3.0
	c, err := Build(mm1k(k, lambda, mu))
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := c.SteadyStateTraced(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := analyticMM1K(k, lambda, mu)
	// Accepted arrival rate = lambda * (1 - P(full)); service throughput
	// equals it in steady state.
	acc := lambda * (1 - want[k])
	gotArr := c.Throughput(pi, func(l string) bool { return l == "arrive" }, nil)
	gotSrv := c.Throughput(pi, func(l string) bool { return l == "serve" }, nil)
	if math.Abs(gotArr-acc) > 1e-9 {
		t.Errorf("arrival throughput = %v, want %v", gotArr, acc)
	}
	if math.Abs(gotSrv-acc) > 1e-9 {
		t.Errorf("service throughput = %v, want %v", gotSrv, acc)
	}
	// Weighted throughput doubles with weight 2.
	gotW := c.Throughput(pi, func(l string) bool { return l == "serve" },
		func(string) float64 { return 2 })
	if math.Abs(gotW-2*acc) > 1e-9 {
		t.Errorf("weighted throughput = %v, want %v", gotW, 2*acc)
	}
}

func TestStateReward(t *testing.T) {
	const k = 4
	c, err := Build(mm1k(k, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := c.SteadyStateTraced(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Mean queue length via state rewards.
	got := c.StateReward(pi, func(s int) float64 { return float64(s) })
	want := 0.0
	for n, p := range analyticMM1K(k, 1, 2) {
		want += float64(n) * p
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("mean queue length = %v, want %v", got, want)
	}
}

// vanishing chain: t0 -exp(2)-> v0 -imm-> {s1 w=1, s2 w=3}; s1,s2 -exp-> t0.
func vanishingLTS() *lts.LTS {
	return system(4, 0, []edge{ // 0=t0, 1=v0, 2=s1, 3=s2
		{0, 1, "go", rates.ExpRate(2)},
		{1, 2, "pick_a", rates.Inf(1, 1)},
		{1, 3, "pick_b", rates.Inf(1, 3)},
		{2, 0, "back", rates.ExpRate(1)},
		{3, 0, "back", rates.ExpRate(1)},
	})
}

func TestVanishingElimination(t *testing.T) {
	c, err := Build(vanishingLTS())
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 3 {
		t.Fatalf("tangible states = %d, want 3", c.N)
	}
	if c.NumVanishing() != 1 {
		t.Fatalf("vanishing states = %d, want 1", c.NumVanishing())
	}
	pi, _, err := c.SteadyStateTraced(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Balance: let r = visit rate of t0's departure = pi0*2. s1 gets r/4,
	// s2 gets 3r/4; mean sojourns: t0 1/2, s1 1, s2 1.
	// pi ∝ (1/2, 1/4, 3/4) → (2/6, 1/6, 3/6).
	want := map[int]float64{0: 2.0 / 6, 2: 1.0 / 6, 3: 3.0 / 6}
	for ltsState, w := range want {
		ci := c.CTMCIndexOf(ltsState)
		if ci < 0 {
			t.Fatalf("state %d unexpectedly vanishing", ltsState)
		}
		if math.Abs(pi[ci]-w) > 1e-9 {
			t.Errorf("pi[%d] = %v, want %v", ltsState, pi[ci], w)
		}
	}
	if c.CTMCIndexOf(1) != -1 {
		t.Error("state 1 should be vanishing")
	}
}

func TestImmediateThroughput(t *testing.T) {
	c, err := Build(vanishingLTS())
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := c.SteadyStateTraced(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Entry rate into v0 = pi(t0)*2 = (2/6)*2 = 2/3. pick_a fires at 1/4
	// of that, pick_b at 3/4.
	gotA := c.Throughput(pi, func(l string) bool { return l == "pick_a" }, nil)
	gotB := c.Throughput(pi, func(l string) bool { return l == "pick_b" }, nil)
	if math.Abs(gotA-(2.0/3)*0.25) > 1e-9 {
		t.Errorf("pick_a throughput = %v, want %v", gotA, (2.0/3)*0.25)
	}
	if math.Abs(gotB-(2.0/3)*0.75) > 1e-9 {
		t.Errorf("pick_b throughput = %v, want %v", gotB, (2.0/3)*0.75)
	}
}

func TestImmediatePriorityPreemption(t *testing.T) {
	// A vanishing state with branches at priorities 1 and 2: only the
	// higher-priority branch can fire.
	l := system(3, 0, []edge{
		{0, 1, "low", rates.Inf(1, 1)},
		{0, 2, "high", rates.Inf(2, 1)},
		{1, 0, "back1", rates.ExpRate(1)},
		{2, 0, "back2", rates.ExpRate(1)},
	})
	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	// Initial distribution resolves entirely to state 2.
	if got := c.Initial[c.CTMCIndexOf(2)]; math.Abs(got-1) > 1e-12 {
		t.Errorf("initial mass at 2 = %v, want 1", got)
	}
	if got := c.Initial[c.CTMCIndexOf(1)]; got != 0 {
		t.Errorf("initial mass at 1 = %v, want 0", got)
	}
}

func TestImmediateChainElimination(t *testing.T) {
	// v0 -imm-> v1 -imm-> tangible: chains of vanishing states resolve.
	l := system(4, 0, []edge{
		{0, 1, "a", rates.Inf(1, 1)},
		{1, 2, "b", rates.Inf(1, 1)},
		{2, 3, "c", rates.ExpRate(5)},
		{3, 2, "d", rates.ExpRate(5)},
	})
	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 2 {
		t.Fatalf("N = %d, want 2", c.N)
	}
	if got := c.Initial[c.CTMCIndexOf(2)]; math.Abs(got-1) > 1e-12 {
		t.Errorf("initial mass = %v, want 1 at state 2", got)
	}
}

func TestTimelessTrap(t *testing.T) {
	l := system(2, 0, []edge{
		{0, 1, "a", rates.Inf(1, 1)},
		{1, 0, "b", rates.Inf(1, 1)},
	})
	_, err := Build(l)
	if !errors.Is(err, ErrTimelessTrap) {
		t.Fatalf("want ErrTimelessTrap, got %v", err)
	}
}

func TestNotRated(t *testing.T) {
	l := system(2, 0, []edge{
		{0, 1, "a", rates.PassiveRate()},
	})
	_, err := Build(l)
	if !errors.Is(err, ErrNotRated) {
		t.Fatalf("want ErrNotRated, got %v", err)
	}
}

func TestMultipleBSCCRejected(t *testing.T) {
	l := system(3, 0, []edge{
		{0, 1, "a", rates.ExpRate(1)},
		{0, 2, "b", rates.ExpRate(1)},
	})
	// 1 and 2 are absorbing.
	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SteadyStateTraced(SolveOptions{}); !errors.Is(err, ErrMultipleBSCC) {
		t.Fatalf("want ErrMultipleBSCC, got %v", err)
	}
}

func TestAbsorbingSteadyState(t *testing.T) {
	// Transient start, single absorbing state.
	l := system(2, 0, []edge{
		{0, 1, "die", rates.ExpRate(3)},
	})
	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := c.SteadyStateTraced(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[c.CTMCIndexOf(1)]-1) > 1e-12 {
		t.Errorf("absorbing state mass = %v, want 1", pi[c.CTMCIndexOf(1)])
	}
}

func TestReducibleTransientPart(t *testing.T) {
	// 0 -> 1 <-> 2: state 0 transient, BSCC {1,2}.
	l := system(3, 0, []edge{
		{0, 1, "enter", rates.ExpRate(1)},
		{1, 2, "f", rates.ExpRate(2)},
		{2, 1, "g", rates.ExpRate(4)},
	})
	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := c.SteadyStateTraced(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pi[c.CTMCIndexOf(0)] != 0 {
		t.Errorf("transient state has mass %v", pi[c.CTMCIndexOf(0)])
	}
	// Balance: pi1*2 = pi2*4 → pi1 = 2/3, pi2 = 1/3.
	if math.Abs(pi[c.CTMCIndexOf(1)]-2.0/3) > 1e-9 {
		t.Errorf("pi1 = %v, want 2/3", pi[c.CTMCIndexOf(1)])
	}
}

// unit returns the per-state reward vector of tangible state i.
func unit(c *CTMC, i int) []float64 {
	w := make([]float64, c.N)
	w[i] = 1
	return w
}

func TestTransientExponentialDecay(t *testing.T) {
	l := system(2, 0, []edge{
		{0, 1, "die", rates.ExpRate(1)},
	})
	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Series(nil, c.Initial, unit(c, c.CTMCIndexOf(0)))
	for _, tt := range []float64{0.1, 0.5, 1, 2, 5} {
		p, _, err := s.At(0, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-tt)
		if math.Abs(p-want) > 1e-6 {
			t.Errorf("P0(%v) = %v, want %v", tt, p, want)
		}
	}
	// t=0 returns the initial distribution.
	p, _, err := s.At(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("P0(0) = %v, want 1", p)
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	c, err := Build(mm1k(4, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := c.SteadyStateTraced(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rewards := make([][]float64, c.N)
	for i := range rewards {
		rewards[i] = unit(c, i)
	}
	s := c.Series(nil, c.Initial, rewards...)
	for i := range pi {
		pt, _, err := s.At(i, 200)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pt-pi[i]) > 1e-6 {
			t.Errorf("transient(200)[%d] = %v, steady = %v", i, pt, pi[i])
		}
	}
}

// TestTransientTwoStateClosedForm checks both sums of a series against
// the closed forms of the two-state chain 0 → 1 at rate a, 1 → 0 at rate
// b, started in 0: π₁(t) = a/(a+b)·(1 − e^(−(a+b)t)) and
// ∫₀ᵗ π₁ = a/(a+b)·(t − (1 − e^(−(a+b)t))/(a+b)). The sample times are
// out of order, and each is answered by the one series; at t = 200 the
// Poisson window starts above term 0, so the prefix sum is in play.
func TestTransientTwoStateClosedForm(t *testing.T) {
	const a, b = 2.0, 3.0
	c, err := Build(mm1k(1, a, b))
	if err != nil {
		t.Fatal(err)
	}
	s := c.Series(nil, c.Initial, unit(c, c.CTMCIndexOf(1)))
	for _, tt := range []float64{3, 0.25, 200, 0, 1, 7.5} {
		p, acc, err := s.At(0, tt)
		if err != nil {
			t.Fatal(err)
		}
		decay := 1 - math.Exp(-(a+b)*tt)
		if want := a / (a + b) * decay; math.Abs(p-want) > 1e-12 {
			t.Errorf("π₁(%v) = %v, want %v", tt, p, want)
		}
		if want := a / (a + b) * (tt - decay/(a+b)); math.Abs(acc-want) > 1e-12*max(1, want) {
			t.Errorf("∫₀^%v π₁ = %v, want %v", tt, acc, want)
		}
	}
}

// cancelAt is a context canceled at its poll with the given index
// (counting from 0).
type cancelAt struct {
	context.Context
	cancel      func()
	polls, stop int
}

func (c *cancelAt) Done() <-chan struct{} {
	if c.polls == c.stop {
		c.cancel()
	}
	c.polls++
	return c.Context.Done()
}

// TestTransientCancelMidSeries cancels a series at its fifth term: the
// evaluation returns a *fault.CanceledError with the transient phase and
// the term index, and the cause.
func TestTransientCancelMidSeries(t *testing.T) {
	c, err := Build(mm1k(4, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := c.Series(&cancelAt{Context: ctx, cancel: cancel, stop: 5}, c.Initial, unit(c, 0))
	_, _, err = s.At(0, 10)
	var ce *fault.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *fault.CanceledError, got %T: %v", err, err)
	}
	if ce.Phase != "ctmc.transient" || ce.Iteration != 5 {
		t.Errorf("canceled at %q iteration %d, want ctmc.transient iteration 5", ce.Phase, ce.Iteration)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause chain lost context.Canceled: %v", err)
	}
}

func TestMeanExitRate(t *testing.T) {
	c, err := Build(mm1k(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := c.SteadyStateTraced(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two states, each with exit rate 1: the steady-state mean exit rate
	// Σ pi(s)·Exit(s) is 1.
	got := 0.0
	for ci, p := range pi {
		got += p * c.Exit[ci]
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("mean exit rate = %v, want 1", got)
	}
	if c.NumExpEdges() != 2 {
		t.Errorf("NumExpEdges = %d, want 2", c.NumExpEdges())
	}
}

func TestDeadlockStateAllowed(t *testing.T) {
	// A deadlocked (absorbing, no transitions) tangible state is fine.
	l := system(2, 0, []edge{
		{0, 1, "end", rates.ExpRate(1)},
	})
	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	if c.Exit[c.CTMCIndexOf(1)] != 0 {
		t.Error("absorbing state should have zero exit rate")
	}
}
