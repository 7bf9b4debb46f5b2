package bisim

import (
	"slices"

	"repro/internal/lts"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// branchingQuotient reduces l modulo branching bisimulation (divergence
// blind) by signature refinement on the tau-SCC condensation, after Blom
// & Orzan. It returns the quotient, whose state b is the block numbered
// b in order of smallest original member, and, for a caller that maps
// states to blocks, the condensation node of every state of l and the
// block of every node: state st is in block blk[comp[st]].
func branchingQuotient(l *lts.LTS) (q *lts.LTS, comp, blk []int32) {
	cd := condense(l)
	blk, numBlocks := refineBranching(cd, nil)

	// Number blocks by smallest original member.
	id := make([]int32, numBlocks)
	for i := range id {
		id[i] = -1
	}
	m := int32(0)
	for _, c := range cd.comp {
		if b := blk[c]; id[b] < 0 {
			id[b] = m
			m++
		}
	}
	for c, b := range blk {
		blk[c] = id[b]
	}

	// Lift the condensed edges block by block, dropping inert tau steps.
	// A counting sort lines the nodes up by block; each block's row is
	// gathered from its nodes' edges, sorted and compacted.
	start := make([]int32, m+1)
	for _, b := range blk {
		start[b+1]++
	}
	for b := int32(1); b <= m; b++ {
		start[b] += start[b-1]
	}
	nodes := make([]int32, cd.n)
	for c, b := range blk {
		nodes[start[b]] = int32(c)
		start[b]++
	}
	rows := statespace.NewRowBuilder()
	var row []uint64
	lo := int32(0)
	for b := int32(0); b < m; b++ {
		row = row[:0]
		for _, c := range nodes[lo:start[b]] {
			for _, e := range cd.row(c) {
				if d := blk[edgeDst(e)]; edgeLabel(e) != lts.TauIndex || d != b {
					row = append(row, sigPairOf(edgeLabel(e), d))
				}
			}
		}
		lo = start[b]
		slices.Sort(row)
		for _, k := range slices.Compact(row) {
			rows.Add(int32(uint32(k)), int32(k>>32), 0, rates.UntimedRate())
		}
		rows.EndRow()
	}
	q = lts.New(l.Symbols(), int(blk[cd.comp[l.Initial]]), rows.CSR())
	return q, cd.comp, blk
}

// refineBranching computes the branching-bisimulation partition of the
// condensation's nodes. It returns every node's block and the number of
// blocks; each, when not nil, is shown the partition after every round.
//
// A node's signature under a partition is the set of (label, block) pairs
// of its direct edges, except that an inert tau edge — one whose target
// stays in the node's block — contributes the target's signature instead.
// Node ids put every tau successor before its source, so one ascending
// pass per round sees each inert target's signature finished. No tau
// closure is built: a signature holds at most one pair per label and
// block.
//
// A round re-signs only what changed. Block ids persist across rounds,
// and a node's signature depends only on its own block, its successors'
// blocks and its inert tau successors' signatures. So a node is re-signed
// when it or a successor moved to a new block in the last round, or when
// an inert tau successor's signature changed earlier in the same pass;
// every other node keeps its signature, which its whole block shares.
// Only blocks holding a re-signed node are split. Re-signed members whose
// signature did not change stay with the members that were not re-signed
// and keep the block id; when every member changed, the largest group
// keeps it. The other groups move to new ids, and the movers and their
// predecessors are re-signed next round. Each round thus yields the
// partition a full round yields, up to block names, and the refinement
// stops at the first round that moves nothing.
func refineBranching(cd *condensation, each func(blk []int32)) (blk []int32, numBlocks int32) {
	n := int32(cd.n)
	predOff, preds := cd.predecessors()
	blk = make([]int32, n)   // every node starts in block 0
	size := make([]int32, n) // members of each block
	size[0] = n
	stamp := make([]int32, n) // the round that re-signs a node next
	for c := range stamp {
		stamp[c] = 1
	}
	// A round's signatures go to one arena while the last round's are read
	// from the other; the two swap at the end of the round. Signatures are
	// short: one to two pairs a node on the paper's models.
	off, prevOff := make([]int32, n+1), make([]int32, n+1)
	sigs, prevSigs := make([]uint64, 0, 2*n), make([]uint64, 0, 2*n)
	var tab sigTable
	// The round's re-signed nodes and their groups.
	resigned, group := make([]int32, 0, n), make([]int32, 0, n)
	var gsize, target []int32 // per group: members and block
	var gsame []bool          // per group: signature unchanged
	best := make([]int32, n)  // per block: the group that may keep its id
	count := make([]int32, n) // per block: re-signed members
	for b := range best {
		best[b] = -1
	}
	numBlocks = 1
	for round := int32(1); ; round++ {
		tab.reset()
		sigs = sigs[:0]
		resigned, group, gsize, gsame = resigned[:0], group[:0], gsize[:0], gsame[:0]
		for c := int32(0); c < n; c++ {
			old := prevSigs[prevOff[c]:prevOff[c+1]]
			if stamp[c] != round {
				sigs = append(sigs, old...)
				off[c+1] = int32(len(sigs))
				continue
			}
			b, lo := blk[c], len(sigs)
			for _, e := range cd.row(c) {
				if d := edgeDst(e); edgeLabel(e) == lts.TauIndex && blk[d] == b {
					sigs = append(sigs, sigs[off[d]:off[d+1]]...)
				} else {
					sigs = append(sigs, sigPairOf(edgeLabel(e), blk[d]))
				}
			}
			sig := sortDedup(sigs[lo:])
			sigs = sigs[:lo+len(sig)]
			off[c+1] = int32(len(sigs))
			same := slices.Equal(sig, old)
			if !same {
				// Inert tau predecessors have larger ids: this pass
				// re-signs them.
				for _, p := range preds[predOff[c]:predOff[c+1]] {
					if p&1 != 0 && blk[p>>1] == b {
						stamp[p>>1] = round
					}
				}
			}
			g := tab.intern(b, sig)
			if int(g) == len(gsize) {
				gsize = append(gsize, 0)
				gsame = append(gsame, same)
			}
			gsize[g]++
			resigned = append(resigned, c)
			group = append(group, g)
		}

		// Choose the group that keeps each split block's id: the unchanged
		// signature's, or the largest when every member changed.
		for g, b := range tab.prev {
			count[b] += gsize[g]
			if k := best[b]; k < 0 || !gsame[k] && (gsame[g] || gsize[g] > gsize[k]) {
				best[b] = int32(g)
			}
		}
		target = target[:0]
		for g, b := range tab.prev {
			t := int32(-1)
			if best[b] == int32(g) && (gsame[g] || count[b] == size[b]) {
				t = b
			}
			target = append(target, t)
		}
		moved := false
		for g, b := range tab.prev {
			if target[g] < 0 {
				target[g] = numBlocks
				size[numBlocks] = gsize[g]
				size[b] -= gsize[g]
				numBlocks++
				moved = true
			}
			best[b], count[b] = -1, 0
		}
		for i, c := range resigned {
			t := target[group[i]]
			if t == blk[c] {
				continue
			}
			blk[c] = t
			stamp[c] = round + 1
			for _, p := range preds[predOff[c]:predOff[c+1]] {
				stamp[p>>1] = round + 1
			}
		}
		if each != nil {
			each(blk)
		}
		if !moved {
			return blk, numBlocks
		}
		off, prevOff = prevOff, off
		sigs, prevSigs = prevSigs, sigs
	}
}

// predecessors indexes the condensation's edges by target: node c's
// predecessors are preds[off[c]:off[c+1]], each stored as src<<1 | 1 for a
// tau edge and src<<1 for a visible one.
func (cd *condensation) predecessors() (off, preds []int32) {
	off = make([]int32, cd.n+1)
	for _, e := range cd.edges {
		off[edgeDst(e)+1]++
	}
	for c := 1; c <= cd.n; c++ {
		off[c] += off[c-1]
	}
	preds = make([]int32, len(cd.edges))
	for src := int32(0); src < int32(cd.n); src++ {
		for _, e := range cd.row(src) {
			p := src << 1
			if edgeLabel(e) == lts.TauIndex {
				p |= 1
			}
			d := edgeDst(e)
			preds[off[d]] = p
			off[d]++
		}
	}
	// Each cursor now sits at the next row's start.
	copy(off[1:], off[:cd.n])
	off[0] = 0
	return off, preds
}

// sigPairOf packs one (label, block) signature element; the packed values
// sort by label, then block.
func sigPairOf(label, block int32) uint64 { return uint64(label)<<32 | uint64(uint32(block)) }

// sortDedup sorts a signature and removes duplicate pairs in place.
func sortDedup(sig []uint64) []uint64 {
	if len(sig) < 2 {
		return sig
	}
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
