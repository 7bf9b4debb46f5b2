package compose

import (
	"math"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/bisim"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/expr"
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

// lumpableModel composes a worker with a genuinely lumpable local
// automaton — an internal immediate choice between two branches whose
// continuations are behaviourally identical (same "work" offer back to
// the start) — with a passive client synchronized on the work action and
// an independent two-phase ticker. The worker's three local
// configurations lump to two blocks, so the composed quotient is strictly
// smaller than the full product while remaining Markovian bisimilar.
func lumpableModel(t *testing.T) *elab.Model {
	t.Helper()
	worker := aemilia.NewElemType("Worker_Type", nil, []string{"work"},
		aemilia.NewBehavior("W", nil,
			aemilia.Ch(
				aemilia.Pre("pick", rates.Inf(1, 1),
					aemilia.Pre("work", rates.ExpRate(5), aemilia.Invoke("W"))),
				aemilia.Pre("pick", rates.Inf(1, 2),
					aemilia.Pre("work", rates.ExpRate(5), aemilia.Invoke("W"))),
			)))
	client := aemilia.NewElemType("Client_Type", []string{"work"}, nil,
		aemilia.NewBehavior("C", nil,
			aemilia.Pre("work", rates.PassiveRate(), aemilia.Invoke("C"))))
	ticker := aemilia.NewElemType("Ticker_Type", nil, nil,
		aemilia.NewBehavior("T", nil,
			aemilia.Pre("tick", rates.ExpRate(1),
				aemilia.Pre("tock", rates.ExpRate(2), aemilia.Invoke("T")))))
	a := aemilia.NewArchiType("Lumpable",
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

// minimalModel is a producer/buffer/consumer line whose local automata
// are already minimal: every configuration is distinguishable, so the
// quotient must be the identity.
func minimalModel(t *testing.T) *elab.Model {
	t.Helper()
	buf := aemilia.NewElemType("Buffer_Type",
		[]string{"put"}, []string{"get"},
		aemilia.NewBehavior("Buffer", []aemilia.Param{aemilia.IntParam("n")},
			aemilia.Ch(
				aemilia.When(expr.Bin(expr.OpLt, expr.Ref("n"), expr.Int(3)),
					aemilia.Pre("put", rates.PassiveRate(),
						aemilia.Invoke("Buffer", expr.Bin(expr.OpAdd, expr.Ref("n"), expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpGt, expr.Ref("n"), expr.Int(0)),
					aemilia.Pre("get", rates.PassiveRate(),
						aemilia.Invoke("Buffer", expr.Bin(expr.OpSub, expr.Ref("n"), expr.Int(1))))),
			)))
	prod := aemilia.NewElemType("Prod_Type", nil, []string{"put"},
		aemilia.NewBehavior("P", nil,
			aemilia.Pre("put", rates.ExpRate(2), aemilia.Invoke("P"))))
	cons := aemilia.NewElemType("Cons_Type", []string{"get"}, nil,
		aemilia.NewBehavior("C", nil,
			aemilia.Pre("get", rates.ExpRate(3), aemilia.Invoke("C"))))
	a := aemilia.NewArchiType("Line",
		[]*aemilia.ElemType{buf, prod, cons},
		[]*aemilia.Instance{
			aemilia.NewInstance("B", "Buffer_Type", expr.Int(0)),
			aemilia.NewInstance("P", "Prod_Type"),
			aemilia.NewInstance("C", "Cons_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("P", "put", "B", "put"),
			aemilia.Attach("B", "get", "C", "get"),
		})
	return mustModel(t, a)
}

// TestMinimizeLumpsRedundantBranches pins the reductive case: the
// worker's redundant branches lump, the composed quotient is strictly
// smaller, and it stays Markovian bisimilar to the full product.
func TestMinimizeLumpsRedundantBranches(t *testing.T) {
	m := lumpableModel(t)
	qm, st, err := Minimize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances[0].Name != "W" || st.Instances[0].Configs != 3 || st.Instances[0].Blocks != 2 {
		t.Fatalf("worker reduction = %+v, want W 3→2", st.Instances[0])
	}
	fullBound, minBound := st.ProductBound()
	if minBound >= fullBound {
		t.Fatalf("product bound did not shrink: %g → %g", fullBound, minBound)
	}
	full, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quot, err := lts.Generate(qm, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if quot.NumStates >= full.NumStates {
		t.Fatalf("quotient has %d states, full has %d: no reduction", quot.NumStates, full.NumStates)
	}
	if !bisim.MarkovianEquivalent(full, quot) {
		t.Fatal("composed quotient is not Markovian bisimilar to the full product")
	}
}

// TestMinimizeIdentityOnMinimalComponents pins the conservative case: on
// already-minimal local automata the quotient is the identity and the
// composed space is unchanged in size and behaviour.
func TestMinimizeIdentityOnMinimalComponents(t *testing.T) {
	m := minimalModel(t)
	qm, st, err := Minimize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range st.Instances {
		if is.Blocks != is.Configs {
			t.Fatalf("instance %s lumped %d→%d on a minimal automaton", is.Name, is.Configs, is.Blocks)
		}
	}
	full, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quot, err := lts.Generate(qm, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if quot.NumStates != full.NumStates {
		t.Fatalf("quotient has %d states, full has %d", quot.NumStates, full.NumStates)
	}
	if !bisim.MarkovianEquivalent(full, quot) {
		t.Fatal("identity quotient is not Markovian bisimilar to the original")
	}
}

// TestMinimizePreservesPredicateProbabilities pins the measure-layer
// contract: a STATE_REWARD predicate evaluated on the quotient has
// exactly the same steady-state probability as on the full product,
// because the initial partition separates configurations by observed
// local enabledness.
func TestMinimizePreservesPredicateProbabilities(t *testing.T) {
	m := lumpableModel(t)
	preds := []lts.StatePred{{Instance: "T", Action: "tock"}}
	qm, _, err := Minimize(m, Options{Preds: preds})
	if err != nil {
		t.Fatal(err)
	}
	prob := func(model *elab.Model) float64 {
		l, err := lts.Generate(model, lts.GenerateOptions{Predicates: preds})
		if err != nil {
			t.Fatal(err)
		}
		chain, err := ctmc.Build(l)
		if err != nil {
			t.Fatal(err)
		}
		pi, _, err := chain.SteadyStateTraced(ctmc.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		set, err := chain.SelectStates("T.tock")
		if err != nil {
			t.Fatal(err)
		}
		return set.Prob(pi)
	}
	pFull, pQuot := prob(m), prob(qm)
	if math.Abs(pFull-pQuot) > 1e-12 {
		t.Fatalf("P[T.tock enabled]: full %.15g, quotient %.15g", pFull, pQuot)
	}
	if pFull <= 0 || pFull >= 1 {
		t.Fatalf("degenerate predicate probability %g: the test model no longer exercises the refinement", pFull)
	}
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

// TestMinimizeDeterministic pins the determinism rule: two independent
// Minimize runs produce the same quotient, and generation from the two
// quotients is bit-identical.
func TestMinimizeDeterministic(t *testing.T) {
	m := lumpableModel(t)
	qm1, st1, err := Minimize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qm2, st2, err := Minimize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st1.String() != st2.String() {
		t.Fatalf("stats differ across runs: %q vs %q", st1, st2)
	}
	ref, err := lts.Generate(qm1, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := lts.Generate(qm2, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates != ref.NumStates || l.Initial != ref.Initial {
		t.Fatalf("%d states (initial %d), want %d (initial %d)",
			l.NumStates, l.Initial, ref.NumStates, ref.Initial)
	}
	edges, refEdges := flatten(l), flatten(ref)
	if len(edges) != len(refEdges) {
		t.Fatalf("%d edges, want %d", len(edges), len(refEdges))
	}
	for i := range edges {
		if edges[i] != refEdges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, edges[i], refEdges[i])
		}
	}
}

// TestMinimizeRejectsQuotient pins the no-double-lumping guard.
func TestMinimizeRejectsQuotient(t *testing.T) {
	m := lumpableModel(t)
	qm, _, err := Minimize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Minimize(qm, Options{}); err == nil {
		t.Fatal("Minimize accepted an already-quotient model")
	}
}
