package lts

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/elab"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// This file implements vanishing-state folding: the generation-time
// elimination of states whose immediate actions resolve deterministically
// in zero time. A successor state with enabled immediate actions is a
// vanishing state of the eventual chain; ctmc.Build would eliminate it by
// propagating its maximal-progress branch distribution. Folding performs
// the same elimination *before* the state is interned, so the composed
// product never materializes it: each incoming transition is redirected to
// the absorption targets with its rate scaled by the branch probability
// (λ·p for exponential rates, w·p for immediate weights — the exact
// per-column contributions Build would have accumulated).
//
// Measures survive folding by construction:
//   - STATE_REWARD clauses evaluate on tangible states only (vanishing
//     states carry no sojourn probability), and folding removes only
//     vanishing states.
//   - TRANS_REWARD clauses need the firing frequency of observed labels;
//     a folded path records the expected traversal count of each observed
//     label on the redirected edge (the Aux column), and ctmc.Throughput
//     adds flow·count for them.
//
// Soundness guards — a successor is kept (interned as usual) instead of
// folded when:
//   - it is tangible (no immediate moves): nothing to fold;
//   - the incoming rate is passive or untimed: scaling a passive weight by
//     a branch probability would multiply the synchronization
//     opportunities an active exponential partner sees, changing the
//     composed rate, and untimed (functional) models have no probabilistic
//     branch semantics;
//   - the incoming rate is slotted (symbolic) and the expansion branches:
//     an LTS edge cannot carry λ(slot)·p with p < 1 in slotted form
//     (ctmc keeps such coefficients internally, the LTS schema does not);
//     linear chains fold even when slotted because every probability is
//     exactly 1;
//   - its maximal-priority immediate weights do not sum to a positive
//     value, or the chain exceeds foldMaxDepth, or it closes an immediate
//     cycle (a timeless trap, which ctmc.Build rejects on the full system
//     too).
//
// Expansion is a pure function of the model and the successor state, and
// works on the same compiled tuples as the unfolded generator. Every
// tuple an expansion reaches gets a dense id in the memo's TupleTable, and
// all expansion state lives in flat pools indexed by those ids: a verdict
// per id, absorption terms and their attributions carved from shared
// slabs, successor lists and pending branches on explicit stacks. The
// memo and its pools live for one BFS level: the generator resets them
// before a level's first state is expanded. A vanishing state is expanded
// once per level however many transitions reach it, and since the
// verdict, term, attribution and mark pools only grow by doubling and are
// reused across levels, folding makes no allocation per state.

// auxTerm is one observed-label attribution of a folded transition,
// keyed by the label's name-unique compiled id (foldCtx.canon) until the
// generator maps it to an LTS symbol.
type auxTerm struct {
	label int32
	count float64
}

// genTransition is one (possibly redirected) transition handed from the
// folder to the generator.
type genTransition struct {
	label int32 // compiled label id
	rate  rates.Rate
	next  []uint32
	aux   []auxTerm // sorted by label name; nil when no attribution
}

// Verdict states of a memo id.
const (
	// foldOpen: not expanded, or reached past foldMaxDepth (kept, and left
	// open because a shallower visit may still fold it).
	foldOpen uint8 = iota
	// foldOnPath: being expanded; a visit now closes an immediate cycle
	// and keeps the state.
	foldOnPath
	// foldKeep: tangible or unfoldable; the state itself is kept.
	foldKeep
	// foldTerms: vanishing; terms[lo:hi] is its absorption distribution.
	foldTerms
)

// foldVerdict is the memoized expansion result of one memo id.
type foldVerdict struct {
	lo, hi int32
	state  uint8
	// linear reports that the expansion never branched: every probability
	// is exactly 1, so slotted rates fold losslessly.
	linear bool
}

// foldTerm is one absorption target of an expanded vanishing state.
type foldTerm struct {
	state uint32 // memo id of the kept target
	prob  float64
	// aux[auxLo:auxHi] are the observed labels traversed on the way,
	// sorted by name.
	auxLo, auxHi int32
}

// auxFlow is one label's attributed flow: Σ path-probability ·
// traversals of the label on the way to a term.
type auxFlow struct {
	label int32
	flow  float64
}

// auxAcc accumulates the flow of one (term, label) pair during an
// expansion.
type auxAcc struct {
	term  int32
	label int32
	flow  float64
}

// foldBranch is one maximal-priority immediate branch of the state being
// expanded.
type foldBranch struct {
	label int32   // compiled label id
	p     float64 // branch probability
	off   int32   // target tuple at next[off : off+n]
	child uint32  // memo id of the target
	// folded reports the target's own expansion folded (foldTerms).
	folded bool
}

// termMark is addTerm's stamp: at is the term index of a memo id in the
// expansion stamped stamp.
type termMark struct {
	stamp uint32
	at    int32
}

// foldMaxDepth bounds the immediate-chain expansion: deeper chains (or
// cycles, which ctmc.Build rejects as timeless traps anyway) keep the
// intermediate state instead of folding it.
const foldMaxDepth = 1024

// foldCtx is one generation's folding state.
type foldCtx struct {
	c        *elab.Compiled
	n        int
	observed []int8 // by compiled label id: 0 unknown, 1 observed, -1 not
	match    func(string) bool
	// canon maps a compiled label id to the least id of the same name
	// (Compiled.label does not dedup names); rank orders canonical ids by
	// name.
	canon, rank []int32

	memo     *statespace.TupleTable
	verdicts []foldVerdict // by memo id
	terms    []foldTerm
	aux      []auxFlow
	marks    []termMark // by memo id
	stamp    uint32

	// Stacks shared by nested expansions: each expansion pushes above its
	// caller's region and truncates back before returning.
	succ []elab.Succ
	next []uint32
	br   []foldBranch

	acc    []auxAcc
	out    []genTransition
	auxOut []auxTerm
}

func newFoldCtx(c *elab.Compiled, opts *FoldOptions) *foldCtx {
	match := opts.Observed
	if match == nil {
		match = func(string) bool { return false }
	}
	fc := &foldCtx{
		c:     c,
		n:     c.NumInstances(),
		match: match,
		memo:  statespace.NewTupleTable(c.NumInstances()),
	}
	order := make([]int32, c.NumLabels())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(c.Label(a), c.Label(b)) })
	fc.canon = make([]int32, len(order))
	fc.rank = make([]int32, len(order))
	for k, id := range order {
		if k > 0 && c.Label(id) == c.Label(order[k-1]) {
			fc.canon[id] = fc.canon[order[k-1]]
		} else {
			fc.canon[id] = id
		}
		fc.rank[id] = int32(k)
	}
	return fc
}

// isObserved reports whether a compiled label is observed, asking the
// matcher once per label.
func (fc *foldCtx) isObserved(id int32) bool {
	for int(id) >= len(fc.observed) {
		fc.observed = append(fc.observed, 0)
	}
	if fc.observed[id] == 0 {
		fc.observed[id] = -1
		if fc.match(fc.c.Label(id)) {
			fc.observed[id] = 1
		}
	}
	return fc.observed[id] > 0
}

// reset empties the memo and its pools, keeping their capacity. The
// generator calls it at every BFS level boundary, so a memo lives for one
// level; verdicts are recomputed after it, never changed. It must run
// between source states: ids are held on the stacks while an expansion
// recurses, and foldTransitions' output points into the memo.
func (fc *foldCtx) reset() {
	fc.memo.Reset()
	fc.verdicts = fc.verdicts[:0]
	fc.terms = fc.terms[:0]
	fc.aux = fc.aux[:0]
	// Stale marks keep stamps below every future one.
}

// expandTarget computes the absorption distribution of tuple v, memoized
// by its memo id, which it returns. Unless the id's verdict is foldTerms,
// v is kept.
func (fc *foldCtx) expandTarget(v []uint32, depth int) (uint32, error) {
	id, fresh := fc.memo.Intern(v)
	if fresh {
		fc.verdicts = append(doubling(fc.verdicts, 1), foldVerdict{})
	}
	switch st := fc.verdicts[id].state; {
	case st == foldKeep || st == foldTerms:
		return id, nil
	case depth > foldMaxDepth:
		return id, nil // do not memoize: verdict depends on depth
	case st == foldOnPath:
		return id, nil // immediate cycle: keep (timeless trap upstream)
	}
	// Successors are pushed on the shared stacks; the region is popped
	// before returning, so most targets (tangible ones) cost no copy.
	succBase, nextBase := len(fc.succ), len(fc.next)
	succ, next, err := fc.c.Successors(fc.memo.Tuple(id), fc.succ, fc.next)
	fc.succ, fc.next = succ[:succBase], next
	if err != nil {
		fc.next = next[:nextBase]
		return 0, err
	}
	succ = succ[succBase:]
	// Maximal-progress selection, mirroring ctmc.Build: the highest
	// priority level among immediate moves wins; weights normalize the
	// remaining choice.
	maxPrio, hasImm := 0, false
	for i := range succ {
		if r := fc.c.Rate(succ[i].Rate); r.Kind == rates.Immediate {
			if !hasImm || r.Priority > maxPrio {
				maxPrio = r.Priority
			}
			hasImm = true
		}
	}
	total := 0.0
	for i := range succ {
		if r := fc.c.Rate(succ[i].Rate); r.Kind == rates.Immediate && r.Priority == maxPrio {
			total += r.Weight
		}
	}
	if !hasImm || !(total > 0) {
		fc.next = fc.next[:nextBase]
		fc.verdicts[id].state = foldKeep
		return id, nil
	}

	fc.verdicts[id].state = foldOnPath
	brBase := len(fc.br)
	for i := range succ {
		if r := fc.c.Rate(succ[i].Rate); r.Kind == rates.Immediate && r.Priority == maxPrio {
			fc.br = append(fc.br, foldBranch{
				label: succ[i].Label,
				p:     r.Weight / total,
				off:   int32(nextBase + i*fc.n),
			})
		}
	}
	brEnd := len(fc.br)
	// Expand every branch target first, so the accumulation below runs
	// with no expansion in flight and can stamp terms by memo id.
	for b := brBase; b < brEnd; b++ {
		off := int(fc.br[b].off)
		child, err := fc.expandTarget(fc.next[off:off+fc.n], depth+1)
		if err != nil {
			fc.next, fc.br = fc.next[:nextBase], fc.br[:brBase]
			return 0, err
		}
		fc.br[b].child = child
		fc.br[b].folded = fc.verdicts[child].state == foldTerms
	}
	fc.next = fc.next[:nextBase]

	if n := fc.memo.Len(); len(fc.marks) < n {
		fc.marks = doubling(fc.marks, n-len(fc.marks))[:n]
	}
	if fc.stamp++; fc.stamp == 0 {
		clear(fc.marks)
		fc.stamp = 1
	}
	lo := int32(len(fc.terms))
	fc.acc = fc.acc[:0]
	linear := brEnd-brBase == 1
	for b := brBase; b < brEnd; b++ {
		br := fc.br[b]
		obs := fc.isObserved(br.label)
		lab := fc.canon[br.label]
		if !br.folded {
			ti := fc.addTerm(br.child, br.p)
			if obs {
				fc.addFlow(ti, lab, br.p)
			}
			continue
		}
		cv := fc.verdicts[br.child]
		if !cv.linear {
			linear = false
		}
		for k := cv.lo; k < cv.hi; k++ {
			st := fc.terms[k]
			ti := fc.addTerm(st.state, br.p*st.prob)
			if obs {
				fc.addFlow(ti, lab, br.p*st.prob)
			}
			for a := st.auxLo; a < st.auxHi; a++ {
				fc.addFlow(ti, fc.aux[a].label, br.p*fc.aux[a].flow)
			}
		}
	}
	fc.br = fc.br[:brBase]
	// Canonicalize the per-term attributions: grouped by term, sorted by
	// label name within a term.
	slices.SortFunc(fc.acc, func(a, b auxAcc) int {
		if a.term != b.term {
			return cmp.Compare(a.term, b.term)
		}
		return cmp.Compare(fc.rank[a.label], fc.rank[b.label])
	})
	for i := 0; i < len(fc.acc); {
		ti := fc.acc[i].term
		t := &fc.terms[ti]
		t.auxLo = int32(len(fc.aux))
		for ; i < len(fc.acc) && fc.acc[i].term == ti; i++ {
			fc.aux = append(doubling(fc.aux, 1), auxFlow{label: fc.acc[i].label, flow: fc.acc[i].flow})
		}
		t.auxHi = int32(len(fc.aux))
	}
	hi := int32(len(fc.terms))
	fc.verdicts[id] = foldVerdict{lo: lo, hi: hi, state: foldTerms, linear: linear && hi-lo == 1}
	return id, nil
}

// addTerm adds probability p of reaching kept memo id state to the
// expansion being accumulated and returns the term's index.
func (fc *foldCtx) addTerm(state uint32, p float64) int32 {
	if m := &fc.marks[state]; m.stamp == fc.stamp {
		fc.terms[m.at].prob += p
		return m.at
	}
	ti := int32(len(fc.terms))
	fc.marks[state] = termMark{stamp: fc.stamp, at: ti}
	fc.terms = append(doubling(fc.terms, 1), foldTerm{state: state, prob: p})
	return ti
}

// doubling returns s with room for extra more elements, doubling its
// capacity when it has to grow, as RowBuilder does: append
// alone grows a large slice by 1.25×, copying the pool several times
// more on its way to a given size.
func doubling[T any](s []T, extra int) []T {
	if len(s)+extra > cap(s) {
		s = slices.Grow(s, max(extra, cap(s)))
	}
	return s
}

// addFlow adds flow to the attribution of a canonical label on term ti.
// An expansion touches few (term, label) pairs, so a scan beats a table.
func (fc *foldCtx) addFlow(ti, label int32, flow float64) {
	for i := range fc.acc {
		if a := &fc.acc[i]; a.term == ti && a.label == label {
			a.flow += flow
			return
		}
	}
	fc.acc = append(fc.acc, auxAcc{term: ti, label: label, flow: flow})
}

// foldTransitions rewrites one source state's successor list (compiled
// successors and their target tuples), folding every foldable vanishing
// target. The returned transitions, their target tuples and attributions
// are valid until the next call.
func (fc *foldCtx) foldTransitions(succ []elab.Succ, next []uint32) ([]genTransition, error) {
	out := fc.out[:0]
	fc.auxOut = fc.auxOut[:0]
	for i := range succ {
		r := fc.c.Rate(succ[i].Rate)
		t := next[i*fc.n : (i+1)*fc.n : (i+1)*fc.n]
		original := genTransition{label: succ[i].Label, rate: r, next: t}
		if r.Kind != rates.Exp && r.Kind != rates.Immediate {
			out = append(out, original)
			continue
		}
		id, err := fc.expandTarget(t, 0)
		if err != nil {
			return nil, err
		}
		vd := fc.verdicts[id]
		if vd.state != foldTerms || (r.Slot > 0 && !vd.linear) {
			out = append(out, original)
			continue
		}
		for k := vd.lo; k < vd.hi; k++ {
			term := fc.terms[k]
			nr := r
			switch r.Kind {
			case rates.Exp:
				nr.Lambda *= term.prob
			case rates.Immediate:
				nr.Weight *= term.prob
			}
			var aux []auxTerm
			if term.auxHi > term.auxLo {
				a0 := len(fc.auxOut)
				for a := term.auxLo; a < term.auxHi; a++ {
					fc.auxOut = append(fc.auxOut, auxTerm{label: fc.aux[a].label, count: fc.aux[a].flow / term.prob})
				}
				aux = fc.auxOut[a0:len(fc.auxOut):len(fc.auxOut)]
			}
			out = append(out, genTransition{label: succ[i].Label, rate: nr, next: fc.memo.Tuple(term.state), aux: aux})
		}
	}
	fc.out = out
	return out, nil
}
