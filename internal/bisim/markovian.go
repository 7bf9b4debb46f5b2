package bisim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lts"
	"repro/internal/rates"
)

// This file implements Markovian bisimulation equivalence (ordinary
// lumpability of the underlying CTMC): two states are equivalent iff for
// every action label and every equivalence class, the cumulative
// exponential rate of moving under that label into that class is the
// same. Immediate transitions are compared by priority and cumulative
// weight. The quotient (lumped) chain is exact: solving it yields the
// same reward values as the original for class-constant rewards.

// markovKey aggregates the quantitative signature of a state's moves
// toward one (label, block) pair.
type markovKey struct {
	label int32
	block int
	prio  int // -1 for exponential entries
}

// MarkovianPartition computes the ordinary-lumpability partition of a
// rated LTS: states in the same block have identical cumulative rates
// (per label and target block) and identical immediate branching.
// Passive and untimed transitions participate with their weights, so the
// partition is also sound for functional models (where it coincides with
// strong bisimulation refined by multiplicities).
func MarkovianPartition(l *lts.LTS) []int {
	n := l.NumStates
	cur := make([]int, n)
	numBlocks := 1
	for {
		sigs := make(map[string]int, numBlocks*2)
		next := make([]int, n)
		var sb strings.Builder
		for s := 0; s < n; s++ {
			sb.Reset()
			sb.WriteString(strconv.Itoa(cur[s]))
			acc := make(map[markovKey]float64, 4)
			sp := l.Out(s)
			for k := 0; k < sp.Len(); k++ {
				key := markovKey{label: sp.Label[k], block: cur[sp.Dst[k]]}
				r := sp.Rate(k)
				switch r.Kind {
				case rates.Exp:
					key.prio = -1
					acc[key] += r.Lambda
				case rates.Immediate:
					key.prio = r.Priority
					acc[key] += r.Weight
				case rates.Passive:
					key.prio = -2
					acc[key] += r.Weight
				default: // Untimed
					key.prio = -3
					acc[key]++
				}
			}
			keys := make([]markovKey, 0, len(acc))
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
				return a.prio < b.prio
			})
			for _, k := range keys {
				fmt.Fprintf(&sb, "|%d:%d:%d:%.12g", k.label, k.block, k.prio, acc[k])
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
			return next
		}
		numBlocks = len(sigs)
		cur = next
	}
}

// MarkovianEquivalent reports whether the initial states of two rated
// LTSs are Markovian bisimilar (labels matched by name).
func MarkovianEquivalent(l1, l2 *lts.LTS) bool {
	u, init1, init2 := union(l1, l2)
	blocks := MarkovianPartition(u)
	return blocks[init1] == blocks[init2]
}

// Lump returns the quotient of a rated LTS by its Markovian-bisimulation
// partition: one state per block, with exponential rates and immediate
// weights accumulated per (label, target block). The lumped chain has the
// same steady-state measures as the original for any reward that is
// constant on blocks — and every ENABLED-style predicate recorded in the
// LTS is constant on blocks only if the predicate distinguishes states;
// predicates are therefore re-evaluated from any member (they agree on
// blocks produced from predicate-consistent generation).
func Lump(l *lts.LTS) *lts.LTS {
	blocks := MarkovianPartition(l)
	numBlocks := 0
	for _, b := range blocks {
		if b+1 > numBlocks {
			numBlocks = b + 1
		}
	}
	// The quotient shares the pipeline symbol table, so label indices are
	// copied verbatim — no per-edge name lookups.
	out := lts.NewShared(numBlocks, l.Symbols())
	out.Initial = blocks[l.Initial]

	// Representative member per block.
	rep := make([]int, numBlocks)
	for i := range rep {
		rep[i] = -1
	}
	for s, b := range blocks {
		if rep[b] < 0 || s < rep[b] {
			rep[b] = s
		}
	}

	type edge struct {
		label int
		dst   int
		prio  int
	}
	emitSorted := func(b int, acc map[edge]float64, mk func(e edge, v float64) rates.Rate) {
		keys := make([]edge, 0, len(acc))
		for e := range acc {
			keys = append(keys, e)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, c := keys[i], keys[j]
			if a.label != c.label {
				return a.label < c.label
			}
			if a.dst != c.dst {
				return a.dst < c.dst
			}
			return a.prio < c.prio
		})
		for _, e := range keys {
			out.AddTransition(b, e.dst, e.label, mk(e, acc[e]))
		}
	}
	for b := 0; b < numBlocks; b++ {
		s := rep[b]
		expAcc := make(map[edge]float64, 4)
		immAcc := make(map[edge]float64, 4)
		pasAcc := make(map[edge]float64, 4)
		untAcc := make(map[edge]float64, 4)
		sp := l.Out(s)
		for k := 0; k < sp.Len(); k++ {
			e := edge{label: int(sp.Label[k]), dst: blocks[sp.Dst[k]]}
			r := sp.Rate(k)
			switch r.Kind {
			case rates.Exp:
				expAcc[e] += r.Lambda
			case rates.Immediate:
				e.prio = r.Priority
				immAcc[e] += r.Weight
			case rates.Passive:
				pasAcc[e] += r.Weight
			default:
				untAcc[e] = 1
			}
		}
		// Emit each accumulator in sorted key order so tied (src, label,
		// dst) triples keep a canonical insertion order under the stable
		// CSR sort — map iteration order must never reach the LTS.
		emitSorted(b, expAcc, func(e edge, v float64) rates.Rate { return rates.ExpRate(v) })
		emitSorted(b, immAcc, func(e edge, v float64) rates.Rate { return rates.Inf(e.prio, v) })
		emitSorted(b, pasAcc, func(e edge, v float64) rates.Rate { return rates.PassiveWeight(v) })
		emitSorted(b, untAcc, func(e edge, v float64) rates.Rate { return rates.UntimedRate() })
	}

	// Carry predicates and descriptions over from representatives.
	if l.Preds != nil {
		out.PredNames = l.PredNames
		out.Preds = make([][]bool, len(l.Preds))
		for p := range l.Preds {
			col := make([]bool, numBlocks)
			for b := 0; b < numBlocks; b++ {
				col[b] = l.Preds[p][rep[b]]
			}
			out.Preds[p] = col
		}
	}
	if l.HasStateDescs() {
		out.SetStateDescFunc(func(b int) string { return l.StateDesc(rep[b]) })
	}
	return out
}
