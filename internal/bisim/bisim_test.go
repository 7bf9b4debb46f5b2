package bisim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hml"
	"repro/internal/lts"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// edge is one transition of a test system in edge-list form, its label an
// index of the system's symbol table.
type edge struct {
	src, dst, label int
	rate            rates.Rate
}

// fromEdges assembles the system over n states whose labels index syms
// from edges listed in any order: it sorts them stably by source, in
// place, and hands each state's edges to a RowBuilder row in list order.
func fromEdges(syms *statespace.Symbols, n, initial int, edges []edge) *lts.LTS {
	slices.SortStableFunc(edges, func(a, b edge) int { return cmp.Compare(a.src, b.src) })
	rows := statespace.NewRowBuilder()
	for s := range n {
		for ; len(edges) > 0 && edges[0].src == s; edges = edges[1:] {
			rows.Add(int32(edges[0].dst), int32(edges[0].label), 0, edges[0].rate)
		}
		rows.EndRow()
	}
	return lts.New(syms, initial, rows.CSR())
}

// edgeList lists every transition of l in canonical order.
func edgeList(l *lts.LTS) []edge {
	var out []edge
	for s := range l.NumStates {
		sp := l.Out(s)
		for k := range sp.Len() {
			out = append(out, edge{src: s, dst: int(sp.Dst[k]), label: int(sp.Label[k]), rate: sp.Rate(k)})
		}
	}
	return out
}

// build constructs an untimed system from (src, label, dst) triples;
// "tau" is the invisible action.
func build(n, initial int, triples [][3]any) *lts.LTS {
	syms := statespace.NewSymbols()
	edges := make([]edge, len(triples))
	for i, e := range triples {
		edges[i] = edge{src: e[0].(int), dst: e[2].(int), label: syms.Intern(e[1].(string)), rate: rates.UntimedRate()}
	}
	return fromEdges(syms, n, initial, edges)
}

// checkDistinguishes verifies that f holds at l1's initial state and fails
// at l2's.
func checkDistinguishes(t *testing.T, l1, l2 *lts.LTS, f hml.Formula) {
	t.Helper()
	if f == nil {
		t.Fatal("nil distinguishing formula")
	}
	if !hml.NewChecker(l1).Sat(l1.Initial, f) {
		t.Errorf("formula %s should hold in l1", hml.Format(f))
	}
	if hml.NewChecker(l2).Sat(l2.Initial, f) {
		t.Errorf("formula %s should fail in l2", hml.Format(f))
	}
}

func TestStrongEquivalentIdentical(t *testing.T) {
	mk := func() *lts.LTS {
		return build(3, 0, [][3]any{{0, "a", 1}, {1, "b", 2}, {2, "c", 0}})
	}
	ok, f := Equivalent(mk(), mk(), Strong)
	if !ok {
		t.Fatalf("identical systems not strongly equivalent; formula %s", hml.Format(f))
	}
}

func TestStrongClassicCounterexample(t *testing.T) {
	// a.(b + c)  vs  a.b + a.c
	l1 := build(4, 0, [][3]any{{0, "a", 1}, {1, "b", 2}, {1, "c", 3}})
	l2 := build(5, 0, [][3]any{{0, "a", 1}, {0, "a", 2}, {1, "b", 3}, {2, "c", 4}})
	ok, f := Equivalent(l1, l2, Strong)
	if ok {
		t.Fatal("a.(b+c) and a.b+a.c must not be strongly bisimilar")
	}
	checkDistinguishes(t, l1, l2, f)
	// They are not even weakly bisimilar.
	ok, f = Equivalent(l1, l2, Weak)
	if ok {
		t.Fatal("a.(b+c) and a.b+a.c must not be weakly bisimilar")
	}
	checkDistinguishes(t, l1, l2, f)
}

func TestWeakAbstractsTau(t *testing.T) {
	// a.tau.b  ≈  a.b
	l1 := build(4, 0, [][3]any{{0, "a", 1}, {1, "tau", 2}, {2, "b", 3}})
	l2 := build(3, 0, [][3]any{{0, "a", 1}, {1, "b", 2}})
	ok, _ := Equivalent(l1, l2, Weak)
	if !ok {
		t.Fatal("a.tau.b should be weakly equivalent to a.b")
	}
	// But not strongly.
	ok, f := Equivalent(l1, l2, Strong)
	if ok {
		t.Fatal("a.tau.b should not be strongly equivalent to a.b")
	}
	checkDistinguishes(t, l1, l2, f)
}

func TestWeakTauChoiceCounterexample(t *testing.T) {
	// tau.a + b  is NOT weakly bisimilar to  a + b: the first can silently
	// commit to a, losing the b option.
	l1 := build(4, 0, [][3]any{{0, "tau", 1}, {1, "a", 2}, {0, "b", 3}})
	l2 := build(3, 0, [][3]any{{0, "a", 1}, {0, "b", 2}})
	ok, f := Equivalent(l1, l2, Weak)
	if ok {
		t.Fatal("tau.a+b should not be weakly bisimilar to a+b")
	}
	// The formula distinguishes one side from the other; it may hold in
	// either direction, but must be valid for (l1, l2) as returned.
	checkDistinguishes(t, l1, l2, f)
}

func TestWeakDeadlockDetection(t *testing.T) {
	// a.0 vs a.0 + tau.0 — the second can silently refuse a.
	l1 := build(2, 0, [][3]any{{0, "a", 1}})
	l2 := build(3, 0, [][3]any{{0, "a", 1}, {0, "tau", 2}})
	ok, f := Equivalent(l1, l2, Weak)
	if ok {
		t.Fatal("a.0 and a.0+tau.0 must differ weakly")
	}
	checkDistinguishes(t, l1, l2, f)
}

func TestPartitionBlocks(t *testing.T) {
	// Two a-loops and one b-loop: states 0,1 equivalent, 2 different.
	l := build(3, 0, [][3]any{{0, "a", 1}, {1, "a", 0}, {2, "b", 2}})
	blocks := Partition(l, Strong)
	if blocks[0] != blocks[1] {
		t.Errorf("states 0 and 1 should share a block: %v", blocks)
	}
	if blocks[0] == blocks[2] {
		t.Errorf("states 0 and 2 should differ: %v", blocks)
	}
}

func TestMinimizeShrinksAndPreserves(t *testing.T) {
	// A 4-state cycle of a's collapses to 1 state under strong bisim.
	l := build(4, 0, [][3]any{{0, "a", 1}, {1, "a", 2}, {2, "a", 3}, {3, "a", 0}})
	m := Minimize(l, Strong)
	if m.NumStates != 1 {
		t.Fatalf("minimized to %d states, want 1", m.NumStates)
	}
	if ok, f := Equivalent(l, m, Strong); !ok {
		t.Fatalf("quotient not strongly equivalent: %s", hml.Format(f))
	}
}

func TestMinimizeWeakDropsTauLoops(t *testing.T) {
	// tau loop plus observable a: minimization should drop the tau self-loop.
	l := build(2, 0, [][3]any{{0, "tau", 0}, {0, "a", 1}, {1, "a", 0}})
	m := Minimize(l, Weak)
	for _, e := range edgeList(m) {
		if e.label == lts.TauIndex && e.src == e.dst {
			t.Error("tau self-loop survived weak minimization")
		}
	}
	if ok, f := Equivalent(l, m, Weak); !ok {
		t.Fatalf("weak quotient not weakly equivalent: %s", hml.Format(f))
	}
}

// randomLTS builds a pseudo-random LTS for property testing.
func randomLTS(r *rand.Rand, n int) *lts.LTS {
	labels := []string{"a", "b", "tau"}
	syms := statespace.NewSymbols()
	var edges []edge
	// Ensure every state has at least one outgoing edge to keep things
	// interesting, plus a few extra random edges.
	for s := 0; s < n; s++ {
		k := 1 + r.Intn(2)
		for range k {
			li := syms.Intern(labels[r.Intn(len(labels))])
			edges = append(edges, edge{src: s, dst: r.Intn(n), label: li, rate: rates.UntimedRate()})
		}
	}
	return fromEdges(syms, n, 0, edges)
}

// Property: every LTS is equivalent to itself and to its own quotient,
// under both relations.
func TestPropertyMinimizeSound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(8)
		l := randomLTS(r, n)
		for _, rel := range []Relation{Strong, Weak} {
			if ok, f := Equivalent(l, l, rel); !ok {
				t.Fatalf("trial %d: LTS not %v-equivalent to itself: %s",
					trial, rel, hml.Format(f))
			}
			m := Minimize(l, rel)
			if ok, f := Equivalent(l, m, rel); !ok {
				t.Fatalf("trial %d: quotient not %v-equivalent: %s",
					trial, rel, hml.Format(f))
			}
			if m.NumStates > l.NumStates {
				t.Fatalf("trial %d: quotient grew", trial)
			}
		}
	}
}

// TestWeakEquivalentSelfConcurrent passes one system as both inputs of a
// weak check, whose two branching quotients are computed concurrently
// from it: under the race detector this shows that computing a quotient
// only reads its input.
func TestWeakEquivalentSelfConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		l := randomLTS(r, 2+r.Intn(8))
		if ok, f := Equivalent(l, l, Weak); !ok {
			t.Fatalf("trial %d: LTS not weakly equivalent to itself: %s", trial, hml.Format(f))
		}
	}
}

// Property: whenever two random systems are inequivalent, the generated
// formula is a valid witness (holds in the first, fails in the second).
func TestPropertyDistinguishingFormulaValid(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		l1 := randomLTS(r, 2+r.Intn(6))
		l2 := randomLTS(r, 2+r.Intn(6))
		for _, rel := range []Relation{Strong, Weak} {
			ok, f := Equivalent(l1, l2, rel)
			if ok {
				continue
			}
			checked++
			if f == nil {
				t.Fatalf("trial %d: inequivalent but nil formula", trial)
			}
			if rel == Weak {
				checkDistinguishes(t, l1, l2, f)
			} else {
				if !hml.NewChecker(l1).Sat(l1.Initial, f) {
					t.Fatalf("trial %d: formula fails in l1: %s", trial, hml.Format(f))
				}
				if hml.NewChecker(l2).Sat(l2.Initial, f) {
					t.Fatalf("trial %d: formula holds in l2: %s", trial, hml.Format(f))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("property vacuous: no inequivalent pairs generated")
	}
}

// Property: strong equivalence implies weak equivalence.
func TestPropertyStrongImpliesWeak(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		l1 := randomLTS(r, 2+r.Intn(6))
		l2 := randomLTS(r, 2+r.Intn(6))
		strongOK, _ := Equivalent(l1, l2, Strong)
		if !strongOK {
			continue
		}
		if weakOK, f := Equivalent(l1, l2, Weak); !weakOK {
			t.Fatalf("trial %d: strongly equivalent but weakly inequivalent: %s",
				trial, hml.Format(f))
		}
	}
}

func TestRelationString(t *testing.T) {
	if Strong.String() != "strong" || Weak.String() != "weak" {
		t.Error("Relation.String wrong")
	}
	if Relation(0).String() != "unknown" {
		t.Error("zero Relation should be unknown")
	}
}
