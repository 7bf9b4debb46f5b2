package lts_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
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
	pi, err := chain.SteadyState(ctmc.SolveOptions{})
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
		a := fullChain.Throughput(fullPi, match, nil)
		b := foldChain.Throughput(foldPi, match, nil)
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
	a := fullChain.Throughput(fullPi, pick, nil)
	b := foldChain.Throughput(foldPi, pick, nil)
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
		pi, err := chain.SteadyState(ctmc.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return chain.Throughput(pi, func(s string) bool { return s == "T.tick" }, nil)
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
