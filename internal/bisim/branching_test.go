package bisim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// referenceBranchingPartition is the refinement refineBranching replaced:
// every round re-signs every node and renumbers all blocks. each is shown
// the partition after every round.
func referenceBranchingPartition(cd *condensation, each func(blk []int32)) []int32 {
	cur := make([]int32, cd.n) // all nodes in block 0
	next := make([]int32, cd.n)
	sigOff := make([]int32, cd.n+1)
	var sigs, sig []uint64
	var tab sigTable
	numBlocks := 1
	for {
		tab.reset()
		sigs = sigs[:0]
		for c := int32(0); c < int32(cd.n); c++ {
			sig = sig[:0]
			for _, e := range cd.row(c) {
				if d := edgeDst(e); edgeLabel(e) == lts.TauIndex && cur[d] == cur[c] {
					sig = append(sig, sigs[sigOff[d]:sigOff[d+1]]...)
				} else {
					sig = append(sig, sigPairOf(edgeLabel(e), cur[d]))
				}
			}
			sig = sortDedup(sig)
			sigs = append(sigs, sig...)
			sigOff[c+1] = int32(len(sigs))
			next[c] = tab.intern(cur[c], sig)
		}
		each(next)
		if tab.len() == numBlocks {
			return next
		}
		numBlocks = tab.len()
		cur, next = next, cur
	}
}

// referenceBranchingQuotient builds the quotient from the reference
// partition: blocks numbered by smallest original member, every condensed
// edge lifted, inert tau steps dropped, one global sort and deduplication.
func referenceBranchingQuotient(l *lts.LTS) (q *lts.LTS, block []int32) {
	cd := condense(l)
	part := referenceBranchingPartition(cd, func([]int32) {})
	id := make(map[int32]int32)
	block = make([]int32, l.NumStates)
	for st, c := range cd.comp {
		b, ok := id[part[c]]
		if !ok {
			b = int32(len(id))
			id[part[c]] = b
		}
		block[st] = b
	}
	var edges []edge
	for c := range int32(cd.n) {
		for _, e := range cd.row(c) {
			src, dst := int(id[part[c]]), int(id[part[edgeDst(e)]])
			if edgeLabel(e) == lts.TauIndex && src == dst {
				continue
			}
			edges = append(edges, edge{src: src, label: int(edgeLabel(e)), dst: dst, rate: rates.UntimedRate()})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.label, b.label), cmp.Compare(a.dst, b.dst))
	})
	edges = slices.Compact(edges)
	return fromEdges(l.Symbols(), len(id), int(block[l.Initial]), edges), block
}

// samePartition reports whether two block assignments induce the same
// equivalence relation.
func samePartition(p, q []int32) bool {
	if len(p) != len(q) {
		return false
	}
	pq, qp := make(map[int32]int32), make(map[int32]int32)
	for c := range p {
		if b, ok := pq[p[c]]; ok && b != q[c] {
			return false
		}
		if b, ok := qp[q[c]]; ok && b != p[c] {
			return false
		}
		pq[p[c]], qp[q[c]] = q[c], p[c]
	}
	return true
}

// checkBranching asserts that refineBranching's partition equals the
// reference's after every round, up to block names, and that
// branchingQuotient returns the reference's quotient and block map.
func checkBranching(t *testing.T, name string, l *lts.LTS) {
	t.Helper()
	cd := condense(l)
	var want, got [][]int32
	referenceBranchingPartition(cd, func(blk []int32) { want = append(want, slices.Clone(blk)) })
	refineBranching(cd, func(blk []int32) { got = append(got, slices.Clone(blk)) })
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds, reference %d\n%s", name, len(got), len(want), dump(l))
	}
	for r := range want {
		if !samePartition(got[r], want[r]) {
			t.Fatalf("%s: round %d partition %v, reference %v\n%s", name, r+1, got[r], want[r], dump(l))
		}
	}

	q, comp, blk := branchingQuotient(l)
	block := make([]int32, l.NumStates)
	for st, c := range comp {
		block[st] = blk[c]
	}
	wantQ, wantBlock := referenceBranchingQuotient(l)
	if !slices.Equal(block, wantBlock) {
		t.Fatalf("%s: block map %v, reference %v\n%s", name, block, wantBlock, dump(l))
	}
	if d := diffSystems(q, wantQ); d != "" {
		t.Fatalf("%s: quotient differs from the reference: %s\n%s", name, d, dump(l))
	}
}

// checkVariants generates a functional model and checks both of its
// noninterference variants: the low instance C observed, every other
// label hidden, and the high labels restricted in the second.
func checkVariants(t *testing.T, name string, a *elab.Model, high func(string) bool) {
	t.Helper()
	l, err := lts.Generate(a, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	low := lts.LabelMatcherByInstance("C")
	notLow := func(label string) bool { return !low(label) }
	checkBranching(t, name+" hidden", lts.Hide(l, notLow))
	checkBranching(t, name+" restricted", lts.Hide(lts.Restrict(l, high), notLow))
}

// TestBranchingRefinementMatchesReference pins the dirty-node refinement
// to the full-round one, round by round, and the quotient built from it
// to the reference quotient: on random and tau-heavy systems, and on the
// noninterference variants of the functional rpc model and of the
// streaming model at 3×6, 4×8 and the paper's 10×10.
func TestBranchingRefinementMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		checkBranching(t, "random", randomLTS(r, 1+r.Intn(40)))
		checkBranching(t, "tau-heavy", tauHeavyLTS(r, 1+r.Intn(30), nil, []string{"a", "b", "c"}))
	}

	rpc := models.DefaultRPCParams()
	rpc.Mode = models.Functional
	arch, err := models.BuildRPCRevised(rpc)
	if err != nil {
		t.Fatal(err)
	}
	em, err := elab.Elaborate(arch)
	if err != nil {
		t.Fatal(err)
	}
	checkVariants(t, "rpc", em, lts.LabelMatcherByNames(models.RPCHighLabels()...))

	for _, shape := range [][2]int64{{3, 6}, {4, 8}, {10, 10}} {
		p := models.DefaultStreamingParams()
		p.Mode = models.Functional
		p.APCapacity, p.ClientCapacity = shape[0], shape[1]
		arch, err := models.BuildStreaming(p)
		if err != nil {
			t.Fatal(err)
		}
		em, err := elab.Elaborate(arch)
		if err != nil {
			t.Fatal(err)
		}
		checkVariants(t, fmt.Sprintf("streaming %dx%d", shape[0], shape[1]), em,
			lts.LabelMatcherByNames(models.StreamingHighLabels()...))
	}
}

// FuzzBranchingQuotient decodes bytes into a small system and runs the
// reference-partition assertions on it. Byte 0 sizes the system and byte 1
// picks its initial state; every following byte pair is one edge: the
// first byte's low five bits are the source and its top three bits the
// label (tau for 0 to 3, else a, b, c or d), the second byte the target.
func FuzzBranchingQuotient(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 32 | 1, 0})
	f.Add([]byte{4, 0, 0, 1, 1, 2, 2, 0, 128, 3, 2 | 160, 3})
	f.Add([]byte{5, 1, 0, 1, 1, 0, 1 | 128, 2, 2, 3, 3 | 224, 4, 2 | 160, 4, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%24
		syms := statespace.NewSymbols()
		var edges []edge
		for b := data[2:min(len(data), 2+2*80)]; len(b) >= 2; b = b[2:] {
			li := lts.TauIndex
			if k := b[0] >> 5; k >= 4 {
				li = syms.Intern(string(rune('a' + k - 4)))
			}
			edges = append(edges, edge{src: int(b[0]&31) % n, dst: int(b[1]) % n, label: li, rate: rates.UntimedRate()})
		}
		checkBranching(t, "fuzz", fromEdges(syms, n, int(data[1])%n, edges))
	})
}
