package bisim

import (
	"slices"

	"repro/internal/lts"
	"repro/internal/rates"
)

// branchingQuotient reduces l modulo branching bisimulation (divergence
// blind) by signature refinement on the tau-SCC condensation, after Blom
// & Orzan. It returns the quotient, whose state b is the block numbered
// b in order of smallest original member, and the block of every state
// of l.
//
// A node's signature under a partition is the set of (label, block) pairs
// of its direct edges, except that an inert tau edge — one whose target
// stays in the node's block — contributes the target's signature instead.
// Condensation ids put every tau successor before its source, so one
// ascending sweep per round sees each inert target's signature finished.
// No tau closure is built: a signature holds at most one pair per label
// and block.
func branchingQuotient(l *lts.LTS) (*lts.LTS, []int32) {
	cd := condense(l)
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
				if e.label == lts.TauIndex && cur[e.dst] == cur[c] {
					sig = append(sig, sigs[sigOff[e.dst]:sigOff[e.dst+1]]...)
				} else {
					sig = append(sig, sigPairOf(e.label, cur[e.dst]))
				}
			}
			sig = sortDedup(sig)
			sigs = append(sigs, sig...)
			sigOff[c+1] = int32(len(sigs))
			next[c] = tab.intern(cur[c], sig)
		}
		if tab.len() == numBlocks {
			break
		}
		numBlocks = tab.len()
		cur, next = next, cur
	}

	// Number blocks by smallest original member.
	id := make([]int32, numBlocks)
	for i := range id {
		id[i] = -1
	}
	block := make([]int32, l.NumStates)
	m := 0
	for st, c := range cd.comp {
		b := cur[c]
		if id[b] < 0 {
			id[b] = int32(m)
			m++
		}
		block[st] = id[b]
	}

	// Lift the condensed edges, dropping inert tau steps.
	qedges := make([]cedge, 0, len(cd.edges))
	for _, e := range cd.edges {
		src, dst := id[cur[e.src]], id[cur[e.dst]]
		if e.label == lts.TauIndex && src == dst {
			continue
		}
		qedges = append(qedges, cedge{src: src, label: e.label, dst: dst})
	}
	slices.SortFunc(qedges, cmpCedge)
	q := lts.NewShared(m, l.Symbols())
	q.Initial = int(block[l.Initial])
	for _, e := range dedupEdges(qedges) {
		q.AddTransition(int(e.src), int(e.dst), int(e.label), rates.UntimedRate())
	}
	return q, block
}

// sigPairOf packs one (label, block) signature element; the packed values
// sort by label, then block.
func sigPairOf(label, block int32) uint64 { return uint64(label)<<32 | uint64(uint32(block)) }

// sortDedup sorts a signature and removes duplicate pairs in place.
func sortDedup(sig []uint64) []uint64 {
	slices.Sort(sig)
	return slices.Compact(sig)
}

// sigTable interns (previous block, signature) keys into dense block ids,
// numbered in order of first appearance. Keys are found by hash and
// confirmed by exact comparison; no string is built.
type sigTable struct {
	head map[uint64]int32 // hash -> newest id with that hash
	next []int32          // per id: older id with the same hash, or -1
	prev []int32          // per id: the previous block of the key
	off  []int32          // per id: signature at data[off[id]:off[id+1]]
	data []uint64
}

// reset empties the table, keeping its storage.
func (t *sigTable) reset() {
	if t.head == nil {
		t.head = make(map[uint64]int32)
	}
	clear(t.head)
	t.next, t.prev, t.data = t.next[:0], t.prev[:0], t.data[:0]
	t.off = append(t.off[:0], 0)
}

// len returns the number of distinct keys interned since the last reset.
func (t *sigTable) len() int { return len(t.prev) }

// intern returns the id of (prev, sig), adding it if new.
func (t *sigTable) intern(prev int32, sig []uint64) int32 {
	h := uint64(uint32(prev))*0x9e3779b97f4a7c15 ^ uint64(len(sig))
	for _, w := range sig {
		h = (h ^ w) * 0x100000001b3
		h ^= h >> 29
	}
	first, ok := t.head[h]
	if !ok {
		first = -1
	}
	for id := first; id >= 0; id = t.next[id] {
		if t.prev[id] == prev && slices.Equal(t.data[t.off[id]:t.off[id+1]], sig) {
			return id
		}
	}
	id := int32(len(t.prev))
	t.head[h] = id
	t.next = append(t.next, first)
	t.prev = append(t.prev, prev)
	t.data = append(t.data, sig...)
	t.off = append(t.off, int32(len(t.data)))
	return id
}
