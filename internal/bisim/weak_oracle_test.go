package bisim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/hml"
	"repro/internal/lts"
	"repro/internal/rates"
)

// The weak entry points reduce every input to its branching quotient
// before saturating. The oracle here calls partition on the unreduced
// systems, which saturates them directly, so these tests pin the
// reduction against the definition.

// oracleEquivalent decides weak bisimilarity of the initial states on the
// unreduced saturated union.
func oracleEquivalent(l1, l2 *lts.LTS) bool {
	u, init1, init2 := union(l1, l2)
	p := partition(u, Weak)
	return p[init1] == p[init2]
}

// sameRelation reports whether two block assignments induce the same
// equivalence relation.
func sameRelation(p, q []int) bool {
	if len(p) != len(q) {
		return false
	}
	pq, qp := make(map[int]int), make(map[int]int)
	for st := range p {
		if b, ok := pq[p[st]]; ok && b != q[st] {
			return false
		}
		if b, ok := qp[q[st]]; ok && b != p[st] {
			return false
		}
		pq[p[st]], qp[q[st]] = q[st], p[st]
	}
	return true
}

// checkAgainstOracle asserts that the weak verdict, formula and partitions
// of (l1, l2) agree with the unreduced oracle.
func checkAgainstOracle(t *testing.T, l1, l2 *lts.LTS) (equivalent bool) {
	t.Helper()
	ok, f := Equivalent(l1, l2, Weak)
	if want := oracleEquivalent(l1, l2); ok != want {
		t.Fatalf("weak verdict %v, oracle %v\nl1: %s\nl2: %s", ok, want, dump(l1), dump(l2))
	}
	if !ok {
		if f == nil {
			t.Fatal("inequivalent but nil formula")
		}
		if !hml.NewChecker(l1).Sat(l1.Initial, f) {
			t.Fatalf("formula %s fails in l1\nl1: %s\nl2: %s", hml.Format(f), dump(l1), dump(l2))
		}
		if hml.NewChecker(l2).Sat(l2.Initial, f) {
			t.Fatalf("formula %s holds in l2\nl1: %s\nl2: %s", hml.Format(f), dump(l1), dump(l2))
		}
	}
	for _, l := range []*lts.LTS{l1, l2} {
		p := Partition(l, Weak)
		if want := partition(l, Weak); !sameRelation(p, want) {
			t.Fatalf("weak partition %v differs from oracle %v\nl: %s", p, want, dump(l))
		}
		if !slices.Equal(p, renumber(slices.Clone(p))) {
			t.Fatalf("weak partition %v not numbered by smallest member", p)
		}
	}
	return ok
}

// dump renders an LTS's edges for failure messages.
func dump(l *lts.LTS) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "init %d:", l.Initial)
	l.Edges(func(src, dst, label int, _ rates.Rate) {
		fmt.Fprintf(&sb, " %d-%s->%d", src, l.LabelName(label), dst)
	})
	return sb.String()
}

// tauHeavyLTS builds a random system on n states whose edges are tau with
// probability one half. When shared is given the system shares its symbol
// table; otherwise it interns its visible labels in the given order into a
// table of its own.
func tauHeavyLTS(r *rand.Rand, n int, shared *lts.LTS, order []string) *lts.LTS {
	var l *lts.LTS
	if shared != nil {
		l = lts.NewShared(n, shared.Symbols())
	} else {
		l = lts.New(n)
		for _, name := range order {
			l.LabelIndex(name)
		}
	}
	l.Initial = r.Intn(n)
	edges := r.Intn(3 * n)
	for range edges {
		li := lts.TauIndex
		if r.Intn(2) == 0 {
			li = l.LabelIndex(order[r.Intn(len(order))])
		}
		l.AddTransition(r.Intn(n), r.Intn(n), li, rates.UntimedRate())
	}
	return l
}

// Property: on random tau-heavy pairs, with shared and with separate
// symbol tables, the branching-reduced weak check agrees with the
// unreduced saturation on the verdict and on the partitions, and every
// formula it returns separates the original systems.
func TestPropertyWeakMatchesSaturationOracle(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	const pairs = 10000
	inequivalent := 0
	for i := 0; i < pairs; i++ {
		l1 := tauHeavyLTS(r, 1+r.Intn(7), nil, []string{"a", "b"})
		var l2 *lts.LTS
		if i%2 == 0 {
			l2 = tauHeavyLTS(r, 1+r.Intn(7), l1, []string{"a", "b"})
		} else {
			l2 = tauHeavyLTS(r, 1+r.Intn(7), nil, []string{"b", "a"})
		}
		if !checkAgainstOracle(t, l1, l2) {
			inequivalent++
		}
	}
	// Both verdicts must be well represented for the property to bite.
	if inequivalent < pairs/10 || inequivalent > pairs*9/10 {
		t.Fatalf("%d of %d pairs inequivalent: generator too skewed", inequivalent, pairs)
	}
}

// FuzzWeakEquivalent decodes bytes into two small systems and runs the
// oracle assertions on them. Byte 0 sizes l1, byte 1 sizes l2, byte 2
// picks shared or separate symbol tables and the initial states; every
// following byte triple is one edge (bit 7 of the first byte selects the
// system).
func FuzzWeakEquivalent(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 1, 1, 1, 0, 0})
	f.Add([]byte{3, 2, 1, 0, 0, 1, 1, 1, 2, 0, 2, 0, 128, 1, 1})
	f.Add([]byte{4, 3, 0, 0, 0, 1, 1, 1, 2, 2, 0, 3, 0, 2, 0, 128, 1, 1, 129, 0, 2})
	f.Add([]byte{2, 2, 1, 0, 0, 1, 1, 0, 0, 128, 0, 1, 129, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n1, n2 := 1+int(data[0])%6, 1+int(data[1])%6
		l1 := lts.New(n1)
		var l2 *lts.LTS
		if data[2]&1 == 0 {
			l2 = lts.NewShared(n2, l1.Symbols())
		} else {
			l2 = lts.New(n2)
			l2.LabelIndex("b")
		}
		l1.Initial = int(data[2]>>1) % n1
		l2.Initial = int(data[2]>>4) % n2
		edges := data[3:]
		if len(edges) > 3*40 {
			edges = edges[:3*40]
		}
		for ; len(edges) >= 3; edges = edges[3:] {
			l, n := l1, n1
			if edges[0]&128 != 0 {
				l, n = l2, n2
			}
			li := lts.TauIndex
			switch edges[1] % 3 {
			case 1:
				li = l.LabelIndex("a")
			case 2:
				li = l.LabelIndex("b")
			}
			l.AddTransition(int(edges[0]&127)%n, int(edges[2])%n, li, rates.UntimedRate())
		}
		checkAgainstOracle(t, l1, l2)
	})
}
