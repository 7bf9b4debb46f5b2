package bisim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lts"
	"repro/internal/rates"
)

// This file extends the Markovian-lumping machinery for compositional
// minimization (lumping one component before composing it): the relation
// must stay a congruence for the Æmilia parallel composition, which is
// stricter than plain ordinary lumpability in three ways.
//
//   - The caller seeds an *initial partition* (states already known to be
//     distinguishable: different enabled-action signatures, different
//     locally-enabled measure predicates) and refinement only ever splits
//     those blocks.
//   - Passive transitions aggregate by weight *and by count*: an active
//     exponential partner synchronizes at full rate with each passive
//     alternative separately (rates.Combine ignores passive weights for
//     exponential actives), so two states offering one and two passive
//     copies of the same action toward the same block compose differently
//     even when the weights sum equally. Immediate actives multiply
//     weights, which the weight sum covers.
//   - Symbolic (slotted) exponential rates aggregate per slot and by
//     count: slotted edges cannot be merged into one coefficient-scaled
//     edge, so states are equivalent only when their slotted offers match
//     as multisets.

// compKey aggregates one state's moves toward a (label, block) pair for the
// composition-sound signature.
type compKey struct {
	label int32
	block int
	prio  int // -1 exponential, -2 passive, -3 untimed
	slot  int // rate slot for exponential entries, 0 otherwise
}

// compAcc is the quantitative aggregate of one compKey.
type compAcc struct {
	sum   float64 // λ-sum (exp), weight-sum (immediate, passive)
	count int     // multiplicity (passive, slotted exp, untimed)
}

// MarkovianPartitionFrom computes the coarsest refinement of an initial
// partition that is a Markovian bisimulation suitable for compositional
// minimization (see the file comment for how it is stricter than
// MarkovianPartition). initial[s] is the seed block of state s; the result
// assigns dense block identifiers ordered by each block's first member, so
// the numbering is a pure function of (l, initial).
func MarkovianPartitionFrom(l *lts.LTS, initial []int) []int {
	n := l.NumStates
	cur := normalizeBlocks(initial, n)
	numBlocks := 0
	for _, b := range cur {
		if b+1 > numBlocks {
			numBlocks = b + 1
		}
	}
	for {
		sigs := make(map[string]int, numBlocks*2)
		next := make([]int, n)
		var sb strings.Builder
		for s := 0; s < n; s++ {
			sb.Reset()
			sb.WriteString(strconv.Itoa(cur[s]))
			acc := make(map[compKey]compAcc, 4)
			sp := l.Out(s)
			for k := 0; k < sp.Len(); k++ {
				key := compKey{label: sp.Label[k], block: cur[sp.Dst[k]]}
				r := sp.Rate(k)
				var a compAcc
				switch r.Kind {
				case rates.Exp:
					key.prio = -1
					key.slot = r.Slot
					a.sum = r.Lambda
					if r.Slot > 0 {
						a.count = 1
					}
				case rates.Immediate:
					key.prio = r.Priority
					a.sum = r.Weight
				case rates.Passive:
					key.prio = -2
					a.sum = r.Weight
					a.count = 1
				default: // Untimed
					key.prio = -3
					a.count = 1
				}
				t := acc[key]
				t.sum += a.sum
				t.count += a.count
				acc[key] = t
			}
			keys := make([]compKey, 0, len(acc))
			for k := range acc {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				a, b := keys[i], keys[j]
				if a.label != b.label {
					return a.label < b.label
				}
				if a.block != b.block {
					return a.block < b.block
				}
				if a.prio != b.prio {
					return a.prio < b.prio
				}
				return a.slot < b.slot
			})
			for _, k := range keys {
				a := acc[k]
				fmt.Fprintf(&sb, "|%d:%d:%d:%d:%.12g:%d", k.label, k.block, k.prio, k.slot, a.sum, a.count)
			}
			key := sb.String()
			id, ok := sigs[key]
			if !ok {
				id = len(sigs)
				sigs[key] = id
			}
			next[s] = id
		}
		if len(sigs) == numBlocks {
			return normalizeBlocks(next, n)
		}
		numBlocks = len(sigs)
		cur = next
	}
}

// normalizeBlocks renumbers a block assignment densely by first occurrence
// (block 0 contains state 0), making the identifiers a pure function of
// the partition rather than of map iteration order.
func normalizeBlocks(blocks []int, n int) []int {
	out := make([]int, n)
	remap := make(map[int]int, 16)
	for s := 0; s < n; s++ {
		id, ok := remap[blocks[s]]
		if !ok {
			id = len(remap)
			remap[blocks[s]] = id
		}
		out[s] = id
	}
	return out
}
