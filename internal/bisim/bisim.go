// Package bisim implements strong and weak (observational) bisimulation
// equivalence checking over explicit labelled transition systems, with
// generation of distinguishing Hennessy–Milner formulas when two systems
// are not equivalent.
//
// Weak queries first reduce every input modulo branching bisimulation:
// signature refinement over the direct edges of the tau-SCC condensation,
// with inert tau steps resolved inside blocks (Blom & Orzan), which builds
// no tau closure. Branching bisimilarity implies weak bisimilarity and each
// quotient is weakly bisimilar to its original, so weak bisimilarity is
// then decided, as strong bisimilarity of the saturated systems
// (tau*·a·tau* weak moves, reflexive tau* moves) after Milner, on
// quotients that are usually tiny. On the paper's capacity-10 streaming
// check (38,016 hidden states, 33 weak blocks) this takes the weak check
// from 10.6 s to 0.04 s.
//
// Partitions are computed by signature refinement: states are repeatedly
// split by the set of (label, target block) pairs they can (weakly) reach,
// interned together with the previous block so that each round refines the
// last. Signatures are sorted integer pairs found by hash with an exact
// comparison. The refinement history supports Cleaveland-style
// construction of a minimal-depth distinguishing formula.
//
// The saturated successor structure is stored in grouped CSR form — per
// node, label-sorted groups of deduplicated successor sets over one shared
// destination arena — and indexes the pipeline's interned labels directly,
// so refinement rounds run without per-state maps.
package bisim

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/hml"
	"repro/internal/lts"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// Relation selects the equivalence to check.
type Relation int

// Supported equivalences.
const (
	// Strong requires matching single transitions.
	Strong Relation = iota + 1
	// Weak abstracts from tau moves (observational equivalence).
	Weak
)

// String returns the relation name.
func (r Relation) String() string {
	switch r {
	case Strong:
		return "strong"
	case Weak:
		return "weak"
	default:
		return "unknown"
	}
}

// sat is the (possibly saturated) successor structure the refinement
// operates on: for each node, label-sorted groups of sorted, deduplicated
// successor sets. Label indices refer to the shared symbol table. For
// Weak, the tau group holds the reflexive-transitive closure.
//
// For the weak relation the structure is built over the *condensation* of
// the tau graph: mutually tau-reachable states are weakly bisimilar, so
// each tau strongly connected component becomes a single node. stateMap
// maps original LTS states to sat nodes (the identity for Strong).
type sat struct {
	n        int
	syms     *statespace.Symbols
	stateMap []int

	// Grouped CSR: node st owns groups grpStart[st]..grpStart[st+1]; group
	// g carries label grpLabel[g] (ascending within a node) and successor
	// set dsts[dstOff[g]:dstOff[g+1]] (sorted, deduplicated).
	grpStart []int32
	grpLabel []int32
	dstOff   []int32
	dsts     []int32
}

// groups returns the group index range of node st.
func (s *sat) groups(st int) (lo, hi int32) { return s.grpStart[st], s.grpStart[st+1] }

// groupDsts returns the successor set of group g.
func (s *sat) groupDsts(g int32) []int32 { return s.dsts[s.dstOff[g]:s.dstOff[g+1]] }

// find returns the successor set of (st, label), or nil.
func (s *sat) find(st int, label int32) []int32 {
	lo, hi := s.grpStart[st], s.grpStart[st+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if s.grpLabel[mid] < label {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.grpStart[st+1] && s.grpLabel[lo] == label {
		return s.groupDsts(lo)
	}
	return nil
}

// satBuilder accumulates the grouped CSR arrays of a sat.
type satBuilder struct {
	s *sat
}

func newSatBuilder(n int, syms *statespace.Symbols) *satBuilder {
	return &satBuilder{s: &sat{
		n:        n,
		syms:     syms,
		grpStart: make([]int32, 1, n+1),
		dstOff:   make([]int32, 1, n+1),
	}}
}

// group appends one (label, dsts) group to the node currently being built;
// dsts must already be sorted and deduplicated.
func (b *satBuilder) group(label int32, dsts []int32) {
	b.s.grpLabel = append(b.s.grpLabel, label)
	b.s.dsts = append(b.s.dsts, dsts...)
	b.s.dstOff = append(b.s.dstOff, int32(len(b.s.dsts)))
}

// endNode closes the current node's group list.
func (b *satBuilder) endNode() {
	b.s.grpStart = append(b.s.grpStart, int32(len(b.s.grpLabel)))
}

// pair is a (label, dst) scratch entry used while grouping a node's edges.
type pair struct{ label, dst int32 }

func sortPairs(ps []pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].label != ps[j].label {
			return ps[i].label < ps[j].label
		}
		return ps[i].dst < ps[j].dst
	})
}

// tauSCCs computes the strongly connected components of the tau-only
// graph (iterative Tarjan) and returns the component id of every state
// plus the number of components. Component ids are assigned in reverse
// topological order of the condensation (sources last).
func tauSCCs(l *lts.LTS) (comp []int32, numComp int) {
	n := l.NumStates
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp = make([]int32, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int32
	counter := int32(0)
	type frame struct{ v, ei int32 }
	for start := 0; start < n; start++ {
		if index[start] >= 0 {
			continue
		}
		frames := []frame{{v: int32(start)}}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, int32(start))
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			out := l.Out(int(f.v))
			advanced := false
			for int(f.ei) < out.Len() {
				k := f.ei
				f.ei++
				if out.Label[k] != lts.TauIndex {
					continue
				}
				w := out.Dst[k]
				if index[w] < 0 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(numComp)
					if w == v {
						break
					}
				}
				numComp++
			}
		}
	}
	return comp, numComp
}

// cedge is one edge of the tau-SCC condensation.
type cedge struct{ src, label, dst int32 }

// condensation is an LTS with every tau strongly connected component
// collapsed to one node: mutually tau-reachable states are branching (and
// so weakly) bisimilar, and the collapse makes the tau graph acyclic.
// Node ids are tauSCCs' reverse topological order, so every tau edge
// between distinct nodes points to a smaller id.
type condensation struct {
	comp []int32 // node of every original state
	n    int
	// edges are sorted by (src, label, dst) and deduplicated, without tau
	// self-loops; node c owns edges[rowOff[c]:rowOff[c+1]].
	edges  []cedge
	rowOff []int32
}

func condense(l *lts.LTS) *condensation {
	comp, nc := tauSCCs(l)
	var edges []cedge
	for st := 0; st < l.NumStates; st++ {
		sp := l.Out(st)
		cs := comp[st]
		for k := 0; k < sp.Len(); k++ {
			cd := comp[sp.Dst[k]]
			if sp.Label[k] == lts.TauIndex && cs == cd {
				continue
			}
			edges = append(edges, cedge{src: cs, label: sp.Label[k], dst: cd})
		}
	}
	slices.SortFunc(edges, cmpCedge)
	edges = dedupEdges(edges)
	rowOff := make([]int32, nc+1)
	for _, e := range edges {
		rowOff[e.src+1]++
	}
	for c := 1; c <= nc; c++ {
		rowOff[c] += rowOff[c-1]
	}
	return &condensation{comp: comp, n: nc, edges: edges, rowOff: rowOff}
}

// cmpCedge orders condensed edges by (src, label, dst).
func cmpCedge(a, b cedge) int {
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.label, b.label); c != 0 {
		return c
	}
	return cmp.Compare(a.dst, b.dst)
}

// row returns the condensed edges of node c.
func (cd *condensation) row(c int32) []cedge { return cd.edges[cd.rowOff[c]:cd.rowOff[c+1]] }

// saturate builds the successor structure for the chosen relation. The
// weak closure is only ever built over a branching quotient (see
// branchingQuotient), which is what keeps it small.
func saturate(l *lts.LTS, rel Relation) *sat {
	if rel == Strong {
		n := l.NumStates
		b := newSatBuilder(n, l.Symbols())
		b.s.stateMap = make([]int, n)
		var buf []pair
		for st := 0; st < n; st++ {
			b.s.stateMap[st] = st
			sp := l.Out(st)
			buf = buf[:0]
			for k := 0; k < sp.Len(); k++ {
				buf = append(buf, pair{label: sp.Label[k], dst: sp.Dst[k]})
			}
			sortPairs(buf)
			emitGroups(b, buf)
			b.endNode()
		}
		return b.s
	}

	cd := condense(l)
	nc := cd.n

	// Reflexive-transitive tau closure over the condensation, stored in a
	// single slab. Successors of c always have ids < c, so a single
	// ascending sweep suffices, and the slab only ever references finished
	// entries.
	cloOff := make([]int32, nc+1)
	clo := make([]int32, 0, nc)
	mark := make([]int32, nc)
	for i := range mark {
		mark[i] = -1
	}
	for c := int32(0); c < int32(nc); c++ {
		start := len(clo)
		clo = append(clo, c)
		mark[c] = c
		for _, e := range cd.row(c) {
			if e.label != lts.TauIndex {
				continue
			}
			for _, x := range clo[cloOff[e.dst]:cloOff[e.dst+1]] {
				if mark[x] != c {
					mark[x] = c
					clo = append(clo, x)
				}
			}
		}
		seg := clo[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		cloOff[c+1] = int32(len(clo))
	}
	closure := func(c int32) []int32 { return clo[cloOff[c]:cloOff[c+1]] }

	b := newSatBuilder(nc, l.Symbols())
	b.s.stateMap = make([]int, l.NumStates)
	for st := range b.s.stateMap {
		b.s.stateMap[st] = int(cd.comp[st])
	}

	// Saturation sweep: succ(c, a) = ∪ closure(d) over visible condensed
	// edges (u, a, d) with u in closure(c); the tau group of c is its
	// closure. Group sets are deduplicated with generation stamps.
	gen := int32(-1)
	stamp := make([]int32, nc)
	for i := range stamp {
		stamp[i] = -1
	}
	var buf []pair
	var setBuf []int32
	for c := int32(0); c < int32(nc); c++ {
		b.group(lts.TauIndex, closure(c))
		buf = buf[:0]
		for _, u := range closure(c) {
			for _, e := range cd.row(u) {
				if e.label == lts.TauIndex {
					continue
				}
				buf = append(buf, pair{label: e.label, dst: e.dst})
			}
		}
		sortPairs(buf)
		for i := 0; i < len(buf); {
			j := i
			gen++
			setBuf = setBuf[:0]
			for j < len(buf) && buf[j].label == buf[i].label {
				for _, v := range closure(buf[j].dst) {
					if stamp[v] != gen {
						stamp[v] = gen
						setBuf = append(setBuf, v)
					}
				}
				j++
			}
			sort.Slice(setBuf, func(x, y int) bool { return setBuf[x] < setBuf[y] })
			b.group(buf[i].label, setBuf)
			i = j
		}
		b.endNode()
	}
	return b.s
}

// emitGroups converts a sorted (label, dst) pair list into deduplicated
// groups on the builder.
func emitGroups(b *satBuilder, buf []pair) {
	for i := 0; i < len(buf); {
		j := i
		last := int32(-1)
		for j < len(buf) && buf[j].label == buf[i].label {
			if buf[j].dst != last {
				b.s.dsts = append(b.s.dsts, buf[j].dst)
				last = buf[j].dst
			}
			j++
		}
		b.s.grpLabel = append(b.s.grpLabel, buf[i].label)
		b.s.dstOff = append(b.s.dstOff, int32(len(b.s.dsts)))
		i = j
	}
}

// dedupEdges removes duplicates from a sorted condensed edge list.
func dedupEdges[E comparable](edges []E) []E {
	out := edges[:0]
	var last E
	for i, e := range edges {
		if i == 0 || e != last {
			out = append(out, e)
			last = e
		}
	}
	return out
}

// refineResult carries the partition and its refinement history.
type refineResult struct {
	s *sat
	// history[k][state] is the block of state after k refinement rounds;
	// history[0] is the initial one-block partition.
	history [][]int
}

// blocks returns the final partition.
func (r *refineResult) blocks() []int { return r.history[len(r.history)-1] }

// refine runs signature refinement to a fixed point. A node's signature is
// the sorted set of (label, block) pairs over its groups, interned together
// with its previous block so that each round refines the last; the grouped
// CSR structure and the two partition buffers are reused across rounds —
// only the history snapshots survive a round.
func refine(s *sat) *refineResult {
	n := s.n
	cur := make([]int, n) // all states in block 0
	next := make([]int, n)
	res := &refineResult{s: s}
	res.history = append(res.history, append([]int(nil), cur...))
	var tab sigTable
	var sig []uint64
	numBlocks := 1
	for {
		tab.reset()
		for st := 0; st < n; st++ {
			sig = sig[:0]
			glo, ghi := s.groups(st)
			for g := glo; g < ghi; g++ {
				for _, d := range s.groupDsts(g) {
					sig = append(sig, sigPairOf(s.grpLabel[g], int32(cur[d])))
				}
			}
			sig = sortDedup(sig)
			next[st] = int(tab.intern(int32(cur[st]), sig))
		}
		res.history = append(res.history, append([]int(nil), next...))
		if tab.len() == numBlocks {
			return res
		}
		numBlocks = tab.len()
		cur, next = next, cur
	}
}

// Partition computes the bisimulation partition of a single LTS: the block
// identifier of each state. Two states are equivalent iff they share a
// block; blocks are numbered in order of their smallest member.
func Partition(l *lts.LTS, rel Relation) []int {
	if rel == Strong {
		return partition(l, Strong)
	}
	q, toQuot := branchingQuotient(l)
	qblocks := partition(q, Weak)
	out := make([]int, l.NumStates)
	for st, b := range toQuot {
		out[st] = qblocks[b]
	}
	return renumber(out)
}

// partition refines the successor structure of l for rel and returns the
// block of every state.
func partition(l *lts.LTS, rel Relation) []int {
	s := saturate(l, rel)
	blocks := refine(s).blocks()
	out := make([]int, l.NumStates)
	for st := range out {
		out[st] = blocks[s.stateMap[st]]
	}
	return out
}

// renumber relabels blocks in order of their smallest member.
func renumber(blocks []int) []int {
	ids := make(map[int]int)
	for st, b := range blocks {
		id, ok := ids[b]
		if !ok {
			id = len(ids)
			ids[b] = id
		}
		blocks[st] = id
	}
	return blocks
}

// Equivalent checks whether the initial states of two LTSs are bisimilar
// under the chosen relation. Labels are matched by name. When the systems
// are not equivalent, a distinguishing formula is returned: it holds in
// the initial state of l1 and fails in the initial state of l2.
//
// For Weak, both systems are first reduced to their branching quotients.
// Each quotient is weakly bisimilar to its original, so the verdict is
// unchanged and a weak formula separating the quotients separates the
// originals.
func Equivalent(l1, l2 *lts.LTS, rel Relation) (bool, hml.Formula) {
	if rel == Weak {
		l1, _ = branchingQuotient(l1)
		l2, _ = branchingQuotient(l2)
	}
	u, init1, init2 := union(l1, l2)
	s := saturate(u, rel)
	res := refine(s)
	blocks := res.blocks()
	n1, n2 := s.stateMap[init1], s.stateMap[init2]
	if blocks[n1] == blocks[n2] {
		return true, nil
	}
	g := &formulaGen{res: res, rel: rel}
	f := g.dist(n1, n2)
	return false, f
}

// union builds the disjoint union of two LTSs. Systems from the same
// pipeline share a symbol table, in which case label indices are copied
// verbatim; otherwise labels are matched by name into a fresh table.
func union(l1, l2 *lts.LTS) (u *lts.LTS, init1, init2 int) {
	shared := l1.Symbols() == l2.Symbols()
	if shared {
		u = lts.NewShared(l1.NumStates+l2.NumStates, l1.Symbols())
	} else {
		u = lts.New(l1.NumStates + l2.NumStates)
	}
	u.Initial = l1.Initial
	copyInto := func(l *lts.LTS, off int) {
		l.Edges(func(src, dst, label int, r rates.Rate) {
			li := label
			if !shared && label != lts.TauIndex {
				li = u.LabelIndex(l.LabelName(label))
			}
			u.AddTransition(src+off, dst+off, li, r)
		})
	}
	copyInto(l1, 0)
	copyInto(l2, l1.NumStates)
	return u, l1.Initial, l2.Initial + l1.NumStates
}
