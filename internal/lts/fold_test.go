package lts_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/rates"
)

func mustModel(t *testing.T, a *aemilia.ArchiType) *elab.Model {
	t.Helper()
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

type flatEdge struct {
	src, dst int
	label    string
	rate     rates.Rate
}

func flatten(l *lts.LTS) []flatEdge {
	var out []flatEdge
	l.Edges(func(src, dst, label int, r rates.Rate) {
		out = append(out, flatEdge{src, dst, l.LabelName(label), r})
	})
	return out
}

// vanishingModel is a closed model whose product has vanishing states: a
// worker that resolves an internal immediate choice ("pick", two weights)
// after each exponential "work" synchronization with a passive client,
// next to an independent two-phase ticker. The choice sits behind the
// exponential so the initial state is tangible, and both branches
// continue identically, so folding removes every vanishing state.
func vanishingModel(t *testing.T) *elab.Model {
	t.Helper()
	worker := aemilia.NewElemType("Worker_Type", nil, []string{"work"},
		aemilia.NewBehavior("W", nil,
			aemilia.Pre("work", rates.ExpRate(5),
				aemilia.Ch(
					aemilia.Pre("pick", rates.Inf(1, 1), aemilia.Invoke("W")),
					aemilia.Pre("pick", rates.Inf(1, 2), aemilia.Invoke("W")),
				))))
	client := aemilia.NewElemType("Client_Type", []string{"work"}, nil,
		aemilia.NewBehavior("C", nil,
			aemilia.Pre("work", rates.PassiveRate(), aemilia.Invoke("C"))))
	ticker := aemilia.NewElemType("Ticker_Type", nil, nil,
		aemilia.NewBehavior("T", nil,
			aemilia.Pre("tick", rates.ExpRate(1),
				aemilia.Pre("tock", rates.ExpRate(2), aemilia.Invoke("T")))))
	a := aemilia.NewArchiType("Vanishing",
		[]*aemilia.ElemType{worker, client, ticker},
		[]*aemilia.Instance{
			aemilia.NewInstance("W", "Worker_Type"),
			aemilia.NewInstance("C", "Client_Type"),
			aemilia.NewInstance("T", "Ticker_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("W", "work", "C", "work"),
		})
	return mustModel(t, a)
}

// slottedModel routes a parametric (slotted) exponential through a
// vanishing state. With a single immediate branch the expansion is linear
// and the slot survives the fold; with two branches it is not, and the
// fold must keep the vanishing state so Rebind stays exact.
func slottedModel(t *testing.T, branches int) *elab.Model {
	t.Helper()
	var body aemilia.Process
	if branches == 1 {
		body = aemilia.Pre("tick", rates.ExpSlot(1, 1),
			aemilia.Pre("mid", rates.Inf(1, 1),
				aemilia.Pre("tock", rates.ExpRate(2), aemilia.Invoke("T"))))
	} else {
		body = aemilia.Pre("tick", rates.ExpSlot(1, 1),
			aemilia.Ch(
				aemilia.Pre("mid", rates.Inf(1, 1),
					aemilia.Pre("tock", rates.ExpRate(2), aemilia.Invoke("T"))),
				aemilia.Pre("mid", rates.Inf(1, 1),
					aemilia.Pre("tock", rates.ExpRate(3), aemilia.Invoke("T"))),
			))
	}
	ticker := aemilia.NewElemType("Ticker_Type", nil, nil,
		aemilia.NewBehavior("T", nil, body))
	a := aemilia.NewArchiType("Slotted",
		[]*aemilia.ElemType{ticker},
		[]*aemilia.Instance{aemilia.NewInstance("T", "Ticker_Type")},
		nil)
	return mustModel(t, a)
}

// steady builds the chain of an LTS and solves it.
func steady(t *testing.T, l *lts.LTS) (*ctmc.CTMC, []float64) {
	t.Helper()
	chain, err := ctmc.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := chain.SteadyStateTraced(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return chain, pi
}

// TestFoldRemovesVanishingStates pins the core contract: generation with
// folding yields exactly the tangible states of the plain generation, and
// the steady-state throughput of every surviving label is unchanged.
func TestFoldRemovesVanishingStates(t *testing.T) {
	m := vanishingModel(t)
	full, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	folded, err := lts.Generate(m, lts.GenerateOptions{Fold: &lts.FoldOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	fullChain, fullPi := steady(t, full)
	tangible := len(fullPi)
	if folded.NumStates != tangible {
		t.Fatalf("folded generation has %d states, full has %d tangible", folded.NumStates, tangible)
	}
	foldChain, foldPi := steady(t, folded)
	for _, label := range []string{"W.work#C.work", "T.tick", "T.tock"} {
		match := func(s string) bool { return s == label }
		a := throughput(fullChain, fullPi, match)
		b := throughput(foldChain, foldPi, match)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("throughput(%s): full %.15g, folded %.15g", label, a, b)
		}
	}
}

// TestFoldAttributesObservedLabels pins the reward-attribution path: a
// label that only ever fires inside folded vanishing chains still reports
// its exact throughput, via the per-edge attribution terms the fold
// leaves behind.
func TestFoldAttributesObservedLabels(t *testing.T) {
	m := vanishingModel(t)
	pick := func(s string) bool { return s == "W.pick" }
	full, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	folded, err := lts.Generate(m, lts.GenerateOptions{Fold: &lts.FoldOptions{Observed: pick}})
	if err != nil {
		t.Fatal(err)
	}
	if folded.NumAux() == 0 {
		t.Fatal("no attribution terms recorded for the observed folded label")
	}
	fullChain, fullPi := steady(t, full)
	foldChain, foldPi := steady(t, folded)
	a := throughput(fullChain, fullPi, pick)
	b := throughput(foldChain, foldPi, pick)
	if a <= 0 {
		t.Fatalf("degenerate reference throughput %g", a)
	}
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("throughput(W.pick): full %.15g, folded %.15g", a, b)
	}
	// Unobserved folding must not record attributions: the aux column is
	// pay-for-what-you-watch.
	blind, err := lts.Generate(m, lts.GenerateOptions{Fold: &lts.FoldOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if blind.NumAux() != 0 {
		t.Fatalf("unobserved fold recorded %d attribution entries", blind.NumAux())
	}
}

// TestFoldSlottedLinear pins the parametric-sweep guard on its permitted
// side: a slotted rate whose vanishing continuation is linear folds, the
// slot survives, and a Rebind at a new point matches the unfolded system
// exactly.
func TestFoldSlottedLinear(t *testing.T) {
	m := slottedModel(t, 1)
	full, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	folded, err := lts.Generate(m, lts.GenerateOptions{Fold: &lts.FoldOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if folded.NumStates >= full.NumStates {
		t.Fatalf("linear slotted chain did not fold: %d vs %d states", folded.NumStates, full.NumStates)
	}
	if folded.NumRateSlots() != 1 {
		t.Fatalf("fold dropped the rate slot: NumRateSlots=%d", folded.NumRateSlots())
	}
	point := []float64{4}
	tput := func(l *lts.LTS) float64 {
		chain, err := ctmc.Build(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.Rebind(point); err != nil {
			t.Fatal(err)
		}
		pi, _, err := chain.SteadyStateTraced(ctmc.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return throughput(chain, pi, func(s string) bool { return s == "T.tick" })
	}
	a, b := tput(full), tput(folded)
	if a <= 0 || math.Abs(a-b) > 1e-12 {
		t.Fatalf("rebound throughput(T.tick): full %.15g, folded %.15g", a, b)
	}
}

// TestFoldSlottedBranchingKept pins the guard's refusing side: a slotted
// rate into a branching vanishing state is left alone — folding the
// branch probabilities into a slotted lambda would break Rebind — so the
// vanishing state survives.
func TestFoldSlottedBranchingKept(t *testing.T) {
	m := slottedModel(t, 2)
	full, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	folded, err := lts.Generate(m, lts.GenerateOptions{Fold: &lts.FoldOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if folded.NumStates != full.NumStates {
		t.Fatalf("branching slotted chain was folded: %d vs %d states", folded.NumStates, full.NumStates)
	}
	flatA, flatB := flatten(full), flatten(folded)
	if len(flatA) != len(flatB) {
		t.Fatalf("edge counts differ: %d vs %d", len(flatA), len(flatB))
	}
	for i := range flatA {
		if flatA[i] != flatB[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, flatA[i], flatB[i])
		}
	}
}

// TestFoldParallelBitIdentity pins determinism: folded generations run
// concurrently from one shared model are bit-identical to a sequential
// one, attribution pool included.
func TestFoldParallelBitIdentity(t *testing.T) {
	m := vanishingModel(t)
	opts := lts.GenerateOptions{
		Fold: &lts.FoldOptions{Observed: func(s string) bool { return s == "W.pick" }},
	}
	ref, err := lts.Generate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	refEdges := flatten(ref)
	got := make([]*lts.LTS, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := lts.Generate(m, opts)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = l
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, l := range got {
		if l.NumStates != ref.NumStates || l.Initial != ref.Initial || l.NumAux() != ref.NumAux() {
			t.Fatalf("generation %d: shape differs (states %d/%d, aux %d/%d)",
				g, l.NumStates, ref.NumStates, l.NumAux(), ref.NumAux())
		}
		edges := flatten(l)
		for i := range edges {
			if edges[i] != refEdges[i] {
				t.Fatalf("generation %d: edge %d = %+v, want %+v", g, i, edges[i], refEdges[i])
			}
		}
		for e := 0; e < l.NumTransitions(); e++ {
			if l.EdgeAux(e) != ref.EdgeAux(e) {
				t.Fatalf("generation %d: edge %d aux handle %d, want %d", g, e, l.EdgeAux(e), ref.EdgeAux(e))
			}
		}
	}
}

// foldedStreaming returns the default-size streaming model and
// its folding generation options, and the folded state count.
func foldedStreaming(t *testing.T) (*elab.Model, lts.GenerateOptions, int) {
	t.Helper()
	p := models.DefaultStreamingParams()
	ms := models.StreamingMeasures(p)
	m := streamingModel(p)(t)
	opts := foldedOpts(ms)(t)
	l, err := lts.Generate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, opts, l.NumStates
}

// TestFoldMaxStatesExactCount pins the intern-time MaxStates bound on a
// folded generation: it aborts with exactly Limit kept states interned.
func TestFoldMaxStatesExactCount(t *testing.T) {
	m, opts, n := foldedStreaming(t)
	opts.MaxStates = n / 2
	_, err := lts.Generate(m, opts)
	var tms *lts.TooManyStatesError
	if !errors.As(err, &tms) {
		t.Fatalf("want TooManyStatesError, got %v", err)
	}
	if tms.Limit != n/2 || tms.States != n/2 {
		t.Fatalf("Limit=%d States=%d, want %d/%d", tms.Limit, tms.States, n/2, n/2)
	}
}

// TestFoldMaxStatesExactFit checks a folded system of exactly MaxStates
// kept states generates, although the unfolded system exceeds the bound:
// states folded away are never interned, so they never count.
func TestFoldMaxStatesExactFit(t *testing.T) {
	m, opts, n := foldedStreaming(t)
	opts.MaxStates = n
	l, err := lts.Generate(m, opts)
	if err != nil {
		t.Fatalf("MaxStates == folded state count must succeed, got %v", err)
	}
	if l.NumStates != n {
		t.Fatalf("NumStates = %d, want %d", l.NumStates, n)
	}
	opts.Fold = nil
	var tms *lts.TooManyStatesError
	if _, err := lts.Generate(m, opts); !errors.As(err, &tms) {
		t.Fatalf("unfolded generation under MaxStates %d: want TooManyStatesError, got %v", n, err)
	}
}

// TestFoldGenerateAllocsScale gates folded generation's allocations: the
// state table, the fold memo and its pools grow by doubling slabs, never
// by a per-state or per-expansion allocation, so generating the minimized
// 12×12 streaming system allocates at most 1.5× what the 6×6 one does.
func TestFoldGenerateAllocsScale(t *testing.T) {
	var counts [2]float64
	var states [2]int
	for i, capacity := range []int64{6, 12} {
		p := models.DefaultStreamingParams()
		p.APCapacity, p.ClientCapacity = capacity, capacity
		p.ParametricPeriod = true
		ms := models.StreamingMeasures(p)
		m := streamingModel(p)(t)
		opts := foldedOpts(ms)(t)
		counts[i] = testing.AllocsPerRun(3, func() {
			l, err := lts.Generate(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			states[i] = l.NumStates
		})
	}
	t.Logf("%d states %.0f allocs, %d states %.0f allocs", states[0], counts[0], states[1], counts[1])
	if counts[1] > 1.5*counts[0] {
		t.Fatalf("folded Generate allocates %.0f times at 12×12 (%d states), over 1.5× the %.0f at 6×6 (%d states)",
			counts[1], states[1], counts[0], states[0])
	}
}

// throughput evaluates, on the steady state pi of c, the frequency of the
// transitions whose label match accepts: the selection is compiled once
// (SelectAll) and evaluated through a Flow, as the measures are.
func throughput(c *ctmc.CTMC, pi []float64, match func(label string) bool) float64 {
	f := c.Flow(pi)
	return f.Throughput(c.SelectAll(nil, match)[0])
}
