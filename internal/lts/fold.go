package lts

import (
	"slices"
	"sort"

	"repro/internal/elab"
	"repro/internal/rates"
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
//     an LTS edge cannot carry λ(slot)·p with p < 1 in rebindable form
//     (ctmc keeps such coefficients internally, the LTS schema does not);
//     linear chains fold even when slotted because every probability is
//     exactly 1;
//   - its maximal-priority immediate weights do not sum to a positive
//     value, or the chain exceeds MaxDepth, or it closes an immediate
//     cycle (a timeless trap, which ctmc.Build rejects on the full system
//     too).
//
// Expansion is a pure function of the model and the successor state, and
// works on the same compiled tuples as the unfolded generator: the memo
// keys on tuple bytes, so a vanishing state is expanded once per
// generation however many transitions reach it.

// auxTerm is one observed-label attribution accumulated during expansion,
// keyed by label name until the generator interns it.
type auxTerm struct {
	label string
	count float64
}

// genTransition is one (possibly redirected) transition handed from the
// folder to the generator.
type genTransition struct {
	label int32 // compiled label id
	rate  rates.Rate
	next  []uint32
	aux   []auxTerm // sorted by label; nil when no attribution
}

// foldTerm is one absorption target of an expanded vanishing state.
type foldTerm struct {
	key     string // tuple bytes
	state   []uint32
	prob    float64
	auxLab  []string  // sorted observed labels traversed on the way
	auxFlow []float64 // parallel: Σ path-probability · traversals
}

// foldEntry is the memoized expansion verdict for one state.
type foldEntry struct {
	// terms is the absorption distribution over kept states; nil means the
	// state itself is kept (tangible or unfoldable).
	terms []foldTerm
	// linear reports that the expansion never branched: every probability
	// is exactly 1, so slotted rates fold losslessly.
	linear bool
}

var keepEntry = &foldEntry{}

// foldMemoLimit bounds the expansion memo; past it the memo is reset (a
// pure speed/memory trade-off — verdicts are recomputed, never changed).
const foldMemoLimit = 1 << 21

// foldCtx is one generation's folding state.
type foldCtx struct {
	c        *elab.Compiled
	n        int
	observed []int8 // by compiled label id: 0 unknown, 1 observed, -1 not
	match    func(string) bool
	maxDepth int
	memo     map[string]*foldEntry
	onPath   map[string]bool
	keyBuf   []byte
	succ     []elab.Succ
	next     []uint32
	out      []genTransition
}

func newFoldCtx(c *elab.Compiled, opts *FoldOptions) *foldCtx {
	depth := opts.MaxDepth
	if depth <= 0 {
		depth = 1024
	}
	match := opts.Observed
	if match == nil {
		match = func(string) bool { return false }
	}
	return &foldCtx{
		c:        c,
		n:        c.NumInstances(),
		match:    match,
		maxDepth: depth,
		memo:     make(map[string]*foldEntry, 1024),
		onPath:   make(map[string]bool, 16),
	}
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

// lookup encodes tuple v into keyBuf and returns its memoized entry.
func (fc *foldCtx) lookup(v []uint32) (*foldEntry, bool) {
	fc.keyBuf = elab.AppendTupleKey(fc.keyBuf[:0], v)
	e, ok := fc.memo[string(fc.keyBuf)]
	return e, ok
}

func (fc *foldCtx) remember(key string, e *foldEntry) {
	if len(fc.memo) >= foldMemoLimit {
		fc.memo = make(map[string]*foldEntry, 1024)
	}
	fc.memo[key] = e
}

// expandTarget computes the absorption distribution of tuple v, memoized
// by its key. A nil-terms entry means "keep v".
func (fc *foldCtx) expandTarget(v []uint32, depth int) (*foldEntry, error) {
	if e, ok := fc.lookup(v); ok {
		return e, nil
	}
	key := string(fc.keyBuf)
	if depth > fc.maxDepth {
		return keepEntry, nil // do not memoize: verdict depends on depth
	}
	if fc.onPath[key] {
		return keepEntry, nil // immediate cycle: keep (timeless trap upstream)
	}
	// Most targets are tangible, so successors go into reused slabs and
	// are copied out only when v turns out to be vanishing.
	succ, next, err := fc.c.Successors(v, fc.succ[:0], fc.next[:0])
	if err != nil {
		return nil, err
	}
	fc.succ, fc.next = succ, next
	// Maximal-progress selection, mirroring ctmc.Build: the highest
	// priority level among immediate moves wins; weights normalize the
	// remaining choice.
	maxPrio, hasImm := 0, false
	for i := range succ {
		if r := succ[i].Rate; r.Kind == rates.Immediate {
			if !hasImm || r.Priority > maxPrio {
				maxPrio = r.Priority
			}
			hasImm = true
		}
	}
	if !hasImm {
		fc.remember(key, keepEntry) // tangible
		return keepEntry, nil
	}
	total := 0.0
	for i := range succ {
		if r := succ[i].Rate; r.Kind == rates.Immediate && r.Priority == maxPrio {
			total += r.Weight
		}
	}
	if !(total > 0) {
		fc.memo[key] = keepEntry
		return keepEntry, nil
	}

	fc.onPath[key] = true
	defer delete(fc.onPath, key)
	// Nested expansions reuse the slabs; the terms keep target tuples.
	succ, next = slices.Clone(succ), slices.Clone(next)

	out := make([]foldTerm, 0, 2)
	pos := make(map[string]int, 2)
	// auxAcc accumulates label flows per output term index.
	var auxAcc []map[string]float64
	addFlow := func(ti int, label string, flow float64) {
		for len(auxAcc) <= ti {
			auxAcc = append(auxAcc, nil)
		}
		if auxAcc[ti] == nil {
			auxAcc[ti] = make(map[string]float64, 2)
		}
		auxAcc[ti][label] += flow
	}
	addTerm := func(key string, st []uint32, p float64) int {
		if ti, ok := pos[key]; ok {
			out[ti].prob += p
			return ti
		}
		ti := len(out)
		pos[key] = ti
		out = append(out, foldTerm{key: key, state: st, prob: p})
		return ti
	}

	fired := 0
	linear := true
	for i := range succ {
		r := succ[i].Rate
		if r.Kind != rates.Immediate || r.Priority != maxPrio {
			continue
		}
		fired++
		p := r.Weight / total
		lab := fc.c.Label(succ[i].Label)
		obsLab := fc.isObserved(succ[i].Label)
		t := next[i*fc.n : (i+1)*fc.n : (i+1)*fc.n]
		sub, err := fc.expandTarget(t, depth+1)
		if err != nil {
			return nil, err
		}
		if sub.terms == nil {
			ti := addTerm(string(elab.AppendTupleKey(fc.keyBuf[:0], t)), t, p)
			if obsLab {
				addFlow(ti, lab, p)
			}
			continue
		}
		if !sub.linear {
			linear = false
		}
		for si := range sub.terms {
			st := &sub.terms[si]
			ti := addTerm(st.key, st.state, p*st.prob)
			if obsLab {
				addFlow(ti, lab, p*st.prob)
			}
			for ai, al := range st.auxLab {
				addFlow(ti, al, p*st.auxFlow[ai])
			}
		}
	}
	if fired > 1 {
		linear = false
	}
	// Canonicalize the per-term attributions (sorted by label).
	for ti := range out {
		acc := (map[string]float64)(nil)
		if ti < len(auxAcc) {
			acc = auxAcc[ti]
		}
		if len(acc) == 0 {
			continue
		}
		labs := make([]string, 0, len(acc))
		for l := range acc {
			labs = append(labs, l)
		}
		sort.Strings(labs)
		flows := make([]float64, len(labs))
		for i, l := range labs {
			flows[i] = acc[l]
		}
		out[ti].auxLab, out[ti].auxFlow = labs, flows
	}
	e := &foldEntry{terms: out, linear: linear && len(out) == 1}
	fc.remember(key, e)
	return e, nil
}

// foldTransitions rewrites one source state's successor list (compiled
// successors and their target tuples), folding every foldable vanishing
// target. The returned slice is reused by the next call.
func (fc *foldCtx) foldTransitions(succ []elab.Succ, next []uint32) ([]genTransition, error) {
	out := fc.out[:0]
	for i := range succ {
		r := succ[i].Rate
		t := next[i*fc.n : (i+1)*fc.n : (i+1)*fc.n]
		original := genTransition{label: succ[i].Label, rate: r, next: t}
		if r.Kind != rates.Exp && r.Kind != rates.Immediate {
			out = append(out, original)
			continue
		}
		entry, err := fc.expandTarget(t, 0)
		if err != nil {
			return nil, err
		}
		if entry.terms == nil || (r.Slot > 0 && !entry.linear) {
			out = append(out, original)
			continue
		}
		for ti := range entry.terms {
			term := &entry.terms[ti]
			nr := r
			switch r.Kind {
			case rates.Exp:
				nr.Lambda *= term.prob
			case rates.Immediate:
				nr.Weight *= term.prob
			}
			var aux []auxTerm
			if len(term.auxLab) > 0 {
				aux = make([]auxTerm, len(term.auxLab))
				for ai, al := range term.auxLab {
					aux[ai] = auxTerm{label: al, count: term.auxFlow[ai] / term.prob}
				}
			}
			out = append(out, genTransition{label: succ[i].Label, rate: nr, next: term.state, aux: aux})
		}
	}
	fc.out = out
	return out, nil
}
