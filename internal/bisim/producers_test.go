package bisim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// referenceMinimize is the lifting Minimize replaced: every edge of l, in
// canonical order, lifted to (block, label, block) and kept at its first
// occurrence by a map, so each lifted edge keeps the rate of its first
// occurrence; the lifted list is then built by fromEdges.
func referenceMinimize(l *lts.LTS, rel Relation) *lts.LTS {
	blocks := Partition(l, rel)
	numBlocks := 0
	for _, b := range blocks {
		numBlocks = max(numBlocks, b+1)
	}
	type key struct{ src, dst, label int }
	seen := make(map[key]bool)
	var lifted []edge
	for _, e := range edgeList(l) {
		k := key{src: blocks[e.src], dst: blocks[e.dst], label: e.label}
		if rel == Weak && e.label == lts.TauIndex && k.src == k.dst || seen[k] {
			continue
		}
		seen[k] = true
		lifted = append(lifted, edge{src: k.src, dst: k.dst, label: e.label, rate: e.rate})
	}
	return fromEdges(l.Symbols(), numBlocks, blocks[l.Initial], lifted)
}

// referenceUnion is the union union replaced: every edge of l1, then every
// edge of l2 shifted past l1's states, in canonical order, with labels
// matched by name into a fresh table unless the two systems share one;
// the list is then built by fromEdges.
func referenceUnion(l1, l2 *lts.LTS) *lts.LTS {
	syms := l1.Symbols()
	shared := syms == l2.Symbols()
	if !shared {
		syms = statespace.NewSymbols()
	}
	var edges []edge
	for i, l := range []*lts.LTS{l1, l2} {
		off := i * l1.NumStates
		for _, e := range edgeList(l) {
			if !shared {
				e.label = syms.Intern(l.LabelName(e.label))
			}
			e.src, e.dst = e.src+off, e.dst+off
			edges = append(edges, e)
		}
	}
	return fromEdges(syms, l1.NumStates+l2.NumStates, l1.Initial, edges)
}

// sameRateBits reports whether two rates are bit-identical.
func sameRateBits(a, b rates.Rate) bool {
	return a.Kind == b.Kind && a.Slot == b.Slot && a.Priority == b.Priority &&
		math.Float64bits(a.Lambda) == math.Float64bits(b.Lambda) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
}

// diffSystems compares two systems state by state — shape, label names,
// every row's destinations and labels, and every edge's rate bit for bit —
// and describes the first difference, or returns "".
func diffSystems(got, want *lts.LTS) string {
	if got.NumStates != want.NumStates || got.Initial != want.Initial {
		return fmt.Sprintf("shape (%d states, initial %d) vs (%d, %d)", got.NumStates, got.Initial, want.NumStates, want.Initial)
	}
	if got.NumLabels() != want.NumLabels() {
		return fmt.Sprintf("%d labels vs %d", got.NumLabels(), want.NumLabels())
	}
	for i := range got.NumLabels() {
		if got.LabelName(i) != want.LabelName(i) {
			return fmt.Sprintf("label %d is %q vs %q", i, got.LabelName(i), want.LabelName(i))
		}
	}
	for s := range got.NumStates {
		g, w := got.Out(s), want.Out(s)
		if !slices.Equal(g.Dst, w.Dst) || !slices.Equal(g.Label, w.Label) {
			return fmt.Sprintf("row %d: destinations %v labels %v vs %v %v", s, g.Dst, g.Label, w.Dst, w.Label)
		}
		for k := range g.Len() {
			if !sameRateBits(g.Rate(k), w.Rate(k)) {
				return fmt.Sprintf("row %d edge %d: rate %+v vs %+v", s, k, g.Rate(k), w.Rate(k))
			}
		}
	}
	return ""
}

// randomRatedLTS builds a random system whose edges draw their rates from
// a small alphabet, ±0 and NaN included, so the edges that lift onto one
// quotient edge often differ in rate.
func randomRatedLTS(r *rand.Rand, n int) *lts.LTS {
	alphabet := []rates.Rate{
		rates.UntimedRate(), rates.ExpRate(1), rates.ExpRate(2), rates.ExpSlot(1, 0.5), rates.Inf(1, 1),
		rates.PassiveRate(), rates.ExpRate(0), rates.ExpRate(math.Copysign(0, -1)), rates.ExpRate(math.NaN()),
	}
	labels := []string{lts.TauName, "a", "b"}
	syms := statespace.NewSymbols()
	initial := r.Intn(n)
	edges := make([]edge, r.Intn(4*n))
	for i := range edges {
		edges[i] = edge{
			src: r.Intn(n), dst: r.Intn(n), label: syms.Intern(labels[r.Intn(len(labels))]),
			rate: alphabet[r.Intn(len(alphabet))],
		}
	}
	return fromEdges(syms, n, initial, edges)
}

// TestProducersMatchReferences pins the three producers that assemble a
// system row by row — Minimize, branchingQuotient and union — to their
// edge-list references, edge for edge and rate for rate: on random
// untimed, tau-heavy and rated systems, and on the hidden variants of the
// functional rpc model, the functional streaming model at the paper's
// 10×10 and the Markovian rpc model.
// Minimize is checked under both relations, and union on pairs with a
// shared and with separate symbol tables.
func TestProducersMatchReferences(t *testing.T) {
	type named struct {
		name string
		l    *lts.LTS
	}
	var systems []named
	r := rand.New(rand.NewSource(59))
	for i := range 150 {
		systems = append(systems,
			named{fmt.Sprintf("random %d", i), randomLTS(r, 1+r.Intn(20))},
			named{fmt.Sprintf("tau-heavy %d", i), tauHeavyLTS(r, 1+r.Intn(20), nil, []string{"a", "b"})},
			named{fmt.Sprintf("rated %d", i), randomRatedLTS(r, 1+r.Intn(20))})
	}
	// hidden generates a model and hides every label not involving the low
	// instance C, as the noninterference check does.
	hidden := func(a *aemilia.ArchiType, err error) *lts.LTS {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		m, err := elab.Elaborate(a)
		if err != nil {
			t.Fatal(err)
		}
		l, err := lts.Generate(m, lts.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		low := lts.LabelMatcherByInstance("C")
		return lts.Hide(l, func(label string) bool { return !low(label) })
	}
	rpc := models.DefaultRPCParams()
	markov := rpc
	rpc.Mode = models.Functional
	st := models.DefaultStreamingParams()
	st.Mode = models.Functional
	st.APCapacity, st.ClientCapacity = 10, 10
	systems = append(systems,
		named{"rpc hidden", hidden(models.BuildRPCRevised(rpc))},
		named{"markovian rpc hidden", hidden(models.BuildRPCRevised(markov))},
		named{"streaming 10x10 hidden", hidden(models.BuildStreaming(st))})

	for i, s := range systems {
		for _, rel := range []Relation{Strong, Weak} {
			if d := diffSystems(Minimize(s.l, rel), referenceMinimize(s.l, rel)); d != "" {
				t.Fatalf("%s: %v Minimize differs from the reference: %s\n%s", s.name, rel, d, dump(s.l))
			}
		}
		q, _, _ := branchingQuotient(s.l)
		want, _ := referenceBranchingQuotient(s.l)
		if d := diffSystems(q, want); d != "" {
			t.Fatalf("%s: branching quotient differs from the reference: %s\n%s", s.name, d, dump(s.l))
		}
		other := systems[(i+1)%len(systems)].l
		for _, pair := range [][2]*lts.LTS{{s.l, s.l}, {s.l, other}, {q, s.l}} {
			u, init1, init2 := union(pair[0], pair[1])
			if d := diffSystems(u, referenceUnion(pair[0], pair[1])); d != "" {
				t.Fatalf("%s: union differs from the reference: %s\n%s", s.name, d, dump(s.l))
			}
			if init1 != pair[0].Initial || init2 != pair[0].NumStates+pair[1].Initial {
				t.Fatalf("%s: union initial states %d, %d", s.name, init1, init2)
			}
		}
	}
}
