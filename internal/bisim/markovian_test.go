package bisim_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bisim"
	"repro/internal/ctmc"
	"repro/internal/lts"
	"repro/internal/rates"
)

// erlangPair builds two representations of an Erlang(2, 2λ)-ish structure:
// a chain with two distinguishable halves vs a symmetric one. Used for a
// positive lumping case: two parallel branches with equal rates lump into
// one.
func symmetricBranch() *lts.LTS {
	// 0 -a-> 1 -b-> 3, 0 -a-> 2 -b-> 3, each exp(1): states 1 and 2 lump.
	l := lts.New(4)
	l.Initial = 0
	a := l.LabelIndex("a")
	b := l.LabelIndex("b")
	l.AddTransition(0, 1, a, rates.ExpRate(1))
	l.AddTransition(0, 2, a, rates.ExpRate(1))
	l.AddTransition(1, 3, b, rates.ExpRate(2))
	l.AddTransition(2, 3, b, rates.ExpRate(2))
	l.AddTransition(3, 0, l.LabelIndex("c"), rates.ExpRate(3))
	return l
}

func TestMarkovianPartitionLumpsSymmetry(t *testing.T) {
	l := symmetricBranch()
	blocks := bisim.MarkovianPartition(l)
	if blocks[1] != blocks[2] {
		t.Errorf("states 1 and 2 should lump: %v", blocks)
	}
	if blocks[0] == blocks[1] || blocks[0] == blocks[3] {
		t.Errorf("distinct roles should not lump: %v", blocks)
	}
}

func TestMarkovianPartitionSeparatesRates(t *testing.T) {
	// Same structure but different rates must not lump.
	l := lts.New(4)
	l.Initial = 0
	a := l.LabelIndex("a")
	b := l.LabelIndex("b")
	l.AddTransition(0, 1, a, rates.ExpRate(1))
	l.AddTransition(0, 2, a, rates.ExpRate(1))
	l.AddTransition(1, 3, b, rates.ExpRate(2))
	l.AddTransition(2, 3, b, rates.ExpRate(5)) // differs
	blocks := bisim.MarkovianPartition(l)
	if blocks[1] == blocks[2] {
		t.Error("states with different rates must not lump")
	}
}

func TestMarkovianPartitionCumulativeRates(t *testing.T) {
	// A state with two exp(1) a-moves into a block equals a state with
	// one exp(2) a-move into the same block (ordinary lumpability).
	l := lts.New(4)
	l.Initial = 0
	a := l.LabelIndex("a")
	l.AddTransition(0, 2, a, rates.ExpRate(1))
	l.AddTransition(0, 3, a, rates.ExpRate(1))
	l.AddTransition(1, 2, a, rates.ExpRate(2))
	// 2 and 3 are absorbing and lump together.
	blocks := bisim.MarkovianPartition(l)
	if blocks[2] != blocks[3] {
		t.Fatalf("absorbing states should lump: %v", blocks)
	}
	if blocks[0] != blocks[1] {
		t.Errorf("cumulative-rate equality should lump 0 and 1: %v", blocks)
	}
}

func TestMarkovianEquivalent(t *testing.T) {
	if !bisim.MarkovianEquivalent(symmetricBranch(), symmetricBranch()) {
		t.Error("identical chains must be Markovian bisimilar")
	}
	l2 := symmetricBranch()
	l2.AddTransition(0, 3, l2.LabelIndex("d"), rates.ExpRate(1))
	if bisim.MarkovianEquivalent(symmetricBranch(), l2) {
		t.Error("extra move must break Markovian bisimilarity")
	}
}

func TestLumpPreservesSteadyState(t *testing.T) {
	l := symmetricBranch()
	lumped := bisim.Lump(l)
	if lumped.NumStates != 3 {
		t.Fatalf("lumped to %d states, want 3", lumped.NumStates)
	}
	orig, err := ctmc.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ctmc.Build(lumped)
	if err != nil {
		t.Fatal(err)
	}
	piO, _, err := orig.SteadyStateTraced(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	piS, _, err := small.SteadyStateTraced(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Throughput of every label must agree between original and quotient.
	for _, label := range []string{"a", "b", "c"} {
		to := throughput(orig, piO, func(s string) bool { return s == label })
		ts := throughput(small, piS, func(s string) bool { return s == label })
		if math.Abs(to-ts) > 1e-9 {
			t.Errorf("label %s: original throughput %v, lumped %v", label, to, ts)
		}
	}
}

func TestLumpHandlesImmediates(t *testing.T) {
	// Two vanishing states with the same immediate branching lump; the
	// lumped chain accumulates weights per target block.
	l := lts.New(6)
	l.Initial = 0
	go1 := l.LabelIndex("go")
	pick := l.LabelIndex("pick")
	back := l.LabelIndex("back")
	l.AddTransition(0, 1, go1, rates.ExpRate(1))
	l.AddTransition(0, 2, go1, rates.ExpRate(1))
	l.AddTransition(1, 3, pick, rates.Inf(1, 1))
	l.AddTransition(1, 4, pick, rates.Inf(1, 3))
	l.AddTransition(2, 3, pick, rates.Inf(1, 1))
	l.AddTransition(2, 4, pick, rates.Inf(1, 3))
	l.AddTransition(3, 0, back, rates.ExpRate(2))
	l.AddTransition(4, 0, back, rates.ExpRate(2))
	l.AddTransition(5, 0, back, rates.ExpRate(9)) // unreachable, distinct

	blocks := bisim.MarkovianPartition(l)
	if blocks[1] != blocks[2] {
		t.Errorf("vanishing twins should lump: %v", blocks)
	}
	if blocks[3] != blocks[4] {
		t.Errorf("targets with equal behaviour should lump: %v", blocks)
	}
	lumped := bisim.Lump(l)
	orig, err := ctmc.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ctmc.Build(lumped)
	if err != nil {
		t.Fatal(err)
	}
	piO, _, err := orig.SteadyStateTraced(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	piS, _, err := small.SteadyStateTraced(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	to := throughput(orig, piO, func(s string) bool { return s == "pick" })
	ts := throughput(small, piS, func(s string) bool { return s == "pick" })
	if math.Abs(to-ts) > 1e-9 {
		t.Errorf("pick throughput: original %v, lumped %v", to, ts)
	}
}

func TestLumpCarriesPredicates(t *testing.T) {
	l := symmetricBranch()
	l.PredNames = []string{"p"}
	l.Preds = [][]bool{{true, false, false, true}}
	lumped := bisim.Lump(l)
	if lumped.Preds == nil || len(lumped.Preds[0]) != lumped.NumStates {
		t.Fatal("predicates not carried over")
	}
	col, err := lumped.PredColumn("p")
	if err != nil || !col[lumped.Initial] {
		t.Errorf("initial-state predicate lost: %v %v", col, err)
	}
}

// randomRatedLTS builds a random CTMC-ish LTS with exponential rates from
// a small rate alphabet (to make lumpable coincidences likely).
func randomRatedLTS(r *rand.Rand, n int) *lts.LTS {
	l := lts.New(n)
	l.Initial = 0
	labels := []string{"a", "b"}
	rateVals := []float64{1, 2}
	for s := 0; s < n; s++ {
		k := 1 + r.Intn(2)
		for i := 0; i < k; i++ {
			l.AddTransition(s, r.Intn(n), l.LabelIndex(labels[r.Intn(2)]),
				rates.ExpRate(rateVals[r.Intn(2)]))
		}
	}
	return l
}

// Property: lumping never changes label throughputs.
func TestPropertyLumpExact(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		l := randomRatedLTS(r, 3+r.Intn(6))
		orig, err := ctmc.Build(l)
		if err != nil {
			t.Fatal(err)
		}
		piO, _, err := orig.SteadyStateTraced(ctmc.SolveOptions{})
		if err != nil {
			continue // multiple BSCCs: skip
		}
		lumped := bisim.Lump(l)
		small, err := ctmc.Build(lumped)
		if err != nil {
			t.Fatalf("trial %d: lumped chain broken: %v", trial, err)
		}
		piS, _, err := small.SteadyStateTraced(ctmc.SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d: lumped chain unsolvable: %v", trial, err)
		}
		for _, label := range []string{"a", "b"} {
			to := throughput(orig, piO, func(s string) bool { return s == label })
			ts := throughput(small, piS, func(s string) bool { return s == label })
			if math.Abs(to-ts) > 1e-8 {
				t.Errorf("trial %d label %s: %v vs %v (lumped %d->%d states)",
					trial, label, to, ts, l.NumStates, lumped.NumStates)
			}
		}
	}
}

// Property: Markovian bisimilarity refines weak bisimilarity on
// functional content — lumping a rated LTS and erasing rates yields a
// strongly bisimilar functional LTS.
func TestPropertyLumpRefinesStrong(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	erase := func(l *lts.LTS) *lts.LTS {
		out := lts.NewShared(l.NumStates, l.Symbols())
		out.Initial = l.Initial
		l.Edges(func(src, dst, label int, _ rates.Rate) {
			out.AddTransition(src, dst, label, rates.UntimedRate())
		})
		return out
	}
	for trial := 0; trial < 20; trial++ {
		l := randomRatedLTS(r, 3+r.Intn(5))
		lumped := bisim.Lump(l)
		if ok, _ := bisim.Equivalent(erase(l), erase(lumped), bisim.Strong); !ok {
			t.Errorf("trial %d: lumped quotient not strongly bisimilar after rate erasure", trial)
		}
	}
}

// throughput evaluates, on the steady state pi of c, the frequency of the
// transitions whose label match accepts: the selection is compiled once
// (SelectAll) and evaluated through a Flow, as the measures are.
func throughput(c *ctmc.CTMC, pi []float64, match func(label string) bool) float64 {
	f := c.Flow(pi, nil)
	return f.Throughput(c.SelectAll(nil, match)[0])
}
