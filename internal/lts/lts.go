// Package lts provides explicit labelled transition systems: generation by
// reachability from an elaborated architectural model, hiding (relabelling
// to tau), restriction (forbidding actions), and utilities used by the
// equivalence checker and the Markovian analyser.
//
// Storage is the compact interned representation of internal/statespace:
// transitions live in CSR (compressed sparse row) arrays, labels are
// interned once in a symbol table shared by an LTS and every system
// derived from it, and state descriptions are computed lazily from the
// generator's state tuples, so analyses never pay for diagnostics they do
// not print.
package lts

import (
	"fmt"
	"strings"

	"repro/internal/rates"
	"repro/internal/statespace"
)

// TauIndex is the label-table index reserved for the invisible action.
const TauIndex = statespace.TauIndex

// TauName is the display name of the invisible action.
const TauName = statespace.TauName

// Span is a read-only view of one state's outgoing transitions inside the
// CSR arrays: Dst and Label are parallel slices, and Rate resolves each
// transition's timing annotation through the system's rate table.
// Mutating a span would corrupt shared storage; treat it as immutable.
type Span struct {
	// Dst holds the destination state of each transition.
	Dst []int32
	// Label holds the symbol-table index of each transition label.
	Label []int32

	rateID []int32
	rates  []rates.Rate
}

// Len returns the number of transitions in the span.
func (sp Span) Len() int { return len(sp.Dst) }

// Rate returns the timing annotation of transition k.
func (sp Span) Rate(k int) rates.Rate { return sp.rates[sp.rateID[k]] }

// LTS is an explicit labelled transition system.
type LTS struct {
	// Initial is the initial state index.
	Initial int
	// NumStates is the number of states.
	NumStates int
	// PredNames names the state predicates evaluated at generation time.
	PredNames []string
	// Preds holds predicate truth per state: Preds[p][s].
	Preds [][]bool

	syms    *statespace.Symbols
	csr     statespace.CSR
	pending []statespace.Edge
	sealed  bool
	descFn  func(int) string

	// Folded reward-attribution pool (vanishing-state folding): when the
	// generator folds measure-unobserved vanishing states into their
	// incoming transitions, each redirected transition may carry the
	// expected traversal counts of the observed labels on the folded path.
	// Entry a > 0 of the CSR Aux column indexes this pool; entry 0 means no
	// attribution. The pool is shared by derived systems (Hide shares the
	// structural arrays; Restrict remaps the Aux column but reuses the
	// pool).
	auxStart []int32 // len = numAux+1; id a occupies auxStart[a-1]..auxStart[a]
	auxLabel []int32
	auxCount []float64
	// memBytes is the extra resident memory attributed to the LTS by its
	// producer (the generator's state tuples); 0 when unknown.
	memBytes int
}

// New creates an empty LTS with a tau label and n states.
func New(n int) *LTS {
	return &LTS{NumStates: n, syms: statespace.NewSymbols()}
}

// NewShared creates an empty LTS with n states sharing an existing symbol
// table — the constructor for systems derived from another LTS, so label
// indices stay stable across a whole pipeline.
func NewShared(n int, syms *statespace.Symbols) *LTS {
	if syms == nil {
		syms = statespace.NewSymbols()
	}
	return &LTS{NumStates: n, syms: syms}
}

// Symbols returns the label symbol table of the LTS.
func (l *LTS) Symbols() *statespace.Symbols { return l.syms }

// LabelIndex interns a label name and returns its index.
func (l *LTS) LabelIndex(name string) int { return l.syms.Intern(name) }

// LookupLabel returns the index of a label name, if present.
func (l *LTS) LookupLabel(name string) (int, bool) { return l.syms.Lookup(name) }

// LabelName returns the label at index i.
func (l *LTS) LabelName(i int) string { return l.syms.Name(i) }

// NumLabels returns the number of interned labels. Labels are shared
// pipeline-wide, so a derived system may carry labels none of its own
// transitions use.
func (l *LTS) NumLabels() int { return l.syms.Len() }

// AddTransition appends a transition. The transition becomes part of the
// canonical CSR form at the next read.
func (l *LTS) AddTransition(src, dst, label int, r rates.Rate) {
	l.unseal()
	l.pending = append(l.pending, statespace.Edge{
		Src: int32(src), Dst: int32(dst), Label: int32(label), Rate: r,
	})
}

// unseal exports the CSR form back to the pending edge list so more
// transitions can be added (a rare, construction-time path).
func (l *LTS) unseal() {
	if !l.sealed {
		return
	}
	edges := make([]statespace.Edge, 0, l.csr.NumEdges())
	for s := 0; s < l.NumStates; s++ {
		lo, hi := l.csr.Row(s)
		for i := lo; i < hi; i++ {
			e := statespace.Edge{
				Src: int32(s), Dst: l.csr.Dst[i], Label: l.csr.Label[i], Rate: l.csr.Rate(i),
			}
			if l.csr.Aux != nil {
				e.Aux = l.csr.Aux[i]
			}
			edges = append(edges, e)
		}
	}
	l.pending = edges
	l.csr = statespace.CSR{}
	l.sealed = false
}

// Seal builds the canonical CSR form from the pending edges; every read
// but Row seals first. Reads of a sealed system write nothing, so goroutines may
// share one once it is sealed (AddTransition unseals it again).
func (l *LTS) Seal() {
	if !l.sealed {
		l.seal()
	}
}

// seal is Seal's slow path, kept out of line so that Seal stays within
// the inlining budget.
//
//go:noinline
func (l *LTS) seal() {
	l.csr = statespace.Build(l.NumStates, l.pending)
	l.pending = nil
	l.sealed = true
}

// setCSR installs an externally built CSR as the canonical storage.
func (l *LTS) setCSR(c statespace.CSR) {
	l.csr = c
	l.pending = nil
	l.sealed = true
}

// Out returns the span of transitions leaving state s.
func (l *LTS) Out(s int) Span {
	l.Seal()
	lo, hi := l.csr.Row(s)
	return Span{Dst: l.csr.Dst[lo:hi], Label: l.csr.Label[lo:hi], rateID: l.csr.RateID[lo:hi], rates: l.csr.Rates}
}

// Row returns the destinations and labels of the transitions leaving
// state s: the narrow view for passes that never read rates, which seal
// the system once before their loops. Row itself does not seal — a call
// to the out-of-line slow path alone would push it past the inlining
// budget — so it panics on an unsealed system.
func (l *LTS) Row(s int) (dst, label []int32) {
	if !l.sealed {
		panic("lts: Row of an unsealed system")
	}
	lo, hi := l.csr.Row(s)
	return l.csr.Dst[lo:hi], l.csr.Label[lo:hi]
}

// EdgeBase returns the global CSR index of the first transition of state
// s; together with Out it gives every transition of s a stable global
// index (used by the CTMC extraction to key reward bookkeeping).
func (l *LTS) EdgeBase(s int) int {
	l.Seal()
	return int(l.csr.RowStart[s])
}

// EdgeLabel returns the label index of the transition at global CSR index
// i.
func (l *LTS) EdgeLabel(i int) int {
	l.Seal()
	return int(l.csr.Label[i])
}

// EdgeAux returns the reward-attribution handle of the transition at
// global CSR index i (0 = none); see AuxTerms.
func (l *LTS) EdgeAux(i int) int {
	l.Seal()
	if l.csr.Aux == nil {
		return 0
	}
	return int(l.csr.Aux[i])
}

// AuxTerms returns the folded reward attribution of handle a as parallel
// label-index and expected-count slices. The slices alias the pool and
// must not be modified. Handle 0 returns empty slices.
func (l *LTS) AuxTerms(a int) (labels []int32, counts []float64) {
	if a <= 0 || l.auxStart == nil {
		return nil, nil
	}
	lo, hi := l.auxStart[a-1], l.auxStart[a]
	return l.auxLabel[lo:hi], l.auxCount[lo:hi]
}

// NumAux returns the number of distinct reward-attribution entries.
func (l *LTS) NumAux() int {
	if l.auxStart == nil {
		return 0
	}
	return len(l.auxStart) - 1
}

// setAuxPool installs the attribution pool (generator-side).
func (l *LTS) setAuxPool(start []int32, label []int32, count []float64) {
	l.auxStart, l.auxLabel, l.auxCount = start, label, count
}

// shareAux copies the attribution pool reference from a parent system.
func (l *LTS) shareAux(p *LTS) {
	l.auxStart, l.auxLabel, l.auxCount = p.auxStart, p.auxLabel, p.auxCount
}

// SetMemBytes records extra resident memory attributed to the LTS by its
// producer (the generator's state tuples).
func (l *LTS) SetMemBytes(n int) { l.memBytes = n }

// MemStats reports the resident memory of the system's canonical storage:
// the state-table bytes recorded by the producer (0 when the LTS was not
// generated), the CSR transition arrays, and the attribution pool.
func (l *LTS) MemStats() (stateTable, csrBytes, auxBytes int) {
	l.Seal()
	return l.memBytes, l.csr.SizeBytes(), 4*len(l.auxStart) + 4*len(l.auxLabel) + 8*len(l.auxCount)
}

// NumRateSlots returns the number of symbolic rate parameters carried by
// the system's edges: the highest slot index on any transition rate, or 0
// when every rate is constant. ctmc.Build uses it to size the rebind
// machinery; derived systems (Hide, Restrict) preserve rates and with them
// the slot column.
func (l *LTS) NumRateSlots() int {
	l.Seal()
	max := 0
	for _, id := range l.csr.RateID {
		if s := l.csr.Rates[id].Slot; s > max {
			max = s
		}
	}
	return max
}

// Edges calls fn for every transition in canonical order.
func (l *LTS) Edges(fn func(src, dst, label int, r rates.Rate)) {
	l.Seal()
	for s := 0; s < l.NumStates; s++ {
		lo, hi := l.csr.Row(s)
		for i := lo; i < hi; i++ {
			fn(s, int(l.csr.Dst[i]), int(l.csr.Label[i]), l.csr.Rate(i))
		}
	}
}

// NumTransitions returns the number of transitions.
func (l *LTS) NumTransitions() int { return l.csr.NumEdges() + len(l.pending) }

// SetStateDescFunc installs a lazy state-description provider, typically a
// closure over the generating model and its state table.
func (l *LTS) SetStateDescFunc(fn func(int) string) { l.descFn = fn }

// HasStateDescs reports whether state descriptions are available.
func (l *LTS) HasStateDescs() bool { return l.descFn != nil }

// StateDesc returns a readable description of state s, or "s<n>" when no
// provider is installed. Descriptions are rendered on demand so bulk
// analyses never pay for them.
func (l *LTS) StateDesc(s int) string {
	if l.descFn != nil {
		return l.descFn(s)
	}
	return fmt.Sprintf("s%d", s)
}

// IsDeadlock reports whether state s has no outgoing transitions.
func (l *LTS) IsDeadlock(s int) bool { return l.Out(s).Len() == 0 }

// Deadlocks returns all deadlocked states.
func (l *LTS) Deadlocks() []int {
	var out []int
	for s := 0; s < l.NumStates; s++ {
		if l.IsDeadlock(s) {
			out = append(out, s)
		}
	}
	return out
}

// PredColumn returns the truth of the named predicate in every state,
// indexed by state. The column aliases the system's storage and must not
// be modified. Callers look a predicate up once and then index it, rather
// than matching its name once per state.
func (l *LTS) PredColumn(name string) ([]bool, error) {
	for i, n := range l.PredNames {
		if n == name {
			return l.Preds[i], nil
		}
	}
	return nil, fmt.Errorf("lts: unknown predicate %q", name)
}

// Hide returns the LTS in which every transition whose label satisfies
// match is relabelled to tau. This is an allocation-light pass over the
// CSR form: the structural arrays (row starts, destinations, rate ids and
// the rate table) are shared with the input, only the label column is
// rewritten, and match is consulted once per distinct label rather than
// once per transition.
// Rates, predicates and state descriptions are preserved.
func Hide(l *LTS, match func(label string) bool) *LTS {
	l.Seal()
	out := &LTS{
		Initial:   l.Initial,
		NumStates: l.NumStates,
		PredNames: l.PredNames,
		Preds:     l.Preds,
		syms:      l.syms,
		descFn:    l.descFn,
	}
	// Per-label verdicts, computed once over the symbol table.
	hideLab := make([]bool, l.syms.Len())
	for i := range hideLab {
		hideLab[i] = i != TauIndex && match(l.syms.Name(i))
	}
	labels := make([]int32, len(l.csr.Label))
	for i, li := range l.csr.Label {
		if hideLab[li] {
			labels[i] = TauIndex
		} else {
			labels[i] = li
		}
	}
	out.setCSR(statespace.CSR{
		RowStart: l.csr.RowStart,
		Dst:      l.csr.Dst,
		Label:    labels,
		RateID:   l.csr.RateID,
		Rates:    l.csr.Rates,
		Aux:      l.csr.Aux,
	})
	out.shareAux(l)
	return out
}

// Restrict returns the sub-LTS obtained by removing every transition whose
// label satisfies match and then restricting to the states reachable from
// the initial state. State indices are compacted (in breadth-first order);
// the symbol table and the rate table are shared with the input, and
// descriptions and predicates are carried over. The result is assembled
// row by row, reusing the input's rate ids.
func Restrict(l *LTS, match func(label string) bool) *LTS {
	l.Seal()
	keepLab := make([]bool, l.syms.Len())
	for i := range keepLab {
		keepLab[i] = i == TauIndex || !match(l.syms.Name(i))
	}
	// BFS over kept transitions.
	remap := make([]int32, l.NumStates)
	for i := range remap {
		remap[i] = -1
	}
	order := []int32{int32(l.Initial)}
	remap[l.Initial] = 0
	for qi := 0; qi < len(order); qi++ {
		s := order[qi]
		lo, hi := l.csr.Row(int(s))
		for i := lo; i < hi; i++ {
			if !keepLab[l.csr.Label[i]] {
				continue
			}
			d := l.csr.Dst[i]
			if remap[d] < 0 {
				remap[d] = int32(len(order))
				order = append(order, d)
			}
		}
	}
	out := NewShared(len(order), l.syms)
	out.Initial = 0
	if l.descFn != nil {
		parent := l.descFn
		out.descFn = func(s int) string { return parent(int(order[s])) }
	}
	if l.Preds != nil {
		out.PredNames = l.PredNames
		out.Preds = make([][]bool, len(l.Preds))
		for p := range l.Preds {
			col := make([]bool, len(order))
			for newIdx, oldIdx := range order {
				col[newIdx] = l.Preds[p][oldIdx]
			}
			out.Preds[p] = col
		}
	}
	// Every target of a kept edge out of a reached state was itself
	// reached, so the rows need no reachability filter.
	rows := statespace.NewRowBuilderOver(l.csr.Rates)
	for _, oldIdx := range order {
		lo, hi := l.csr.Row(int(oldIdx))
		for i := lo; i < hi; i++ {
			if !keepLab[l.csr.Label[i]] {
				continue
			}
			aux := int32(0)
			if l.csr.Aux != nil {
				aux = l.csr.Aux[i]
			}
			rows.AddID(remap[l.csr.Dst[i]], l.csr.Label[i], aux, l.csr.RateID[i])
		}
		rows.EndRow()
	}
	out.setCSR(rows.CSR())
	out.shareAux(l)
	return out
}

// LabelMatcherByInstance returns a matcher for all transition labels that
// involve the given instance name: "I.a", or any '#'-separated part of a
// synchronization label ("I.a#J.b", "J.b#I.a", and every participant of
// an AND broadcast "J.b#K.c#I.a"). It is the standard way to designate a
// component's actions as high.
func LabelMatcherByInstance(inst string) func(string) bool {
	prefix := inst + "."
	return func(label string) bool {
		return anyPart(label, func(part string) bool { return strings.HasPrefix(part, prefix) })
	}
}

// LabelInvolves reports whether a transition label involves the given
// "Instance.action" pair, either standalone ("I.a") or as any
// '#'-separated participant of a synchronization ("I.a#J.b", "J.b#I.a",
// or one subscriber of an AND broadcast "J.b#K.c#I.a").
func LabelInvolves(label, instAction string) bool {
	return anyPart(label, func(part string) bool { return part == instAction })
}

// anyPart reports whether pred holds for some '#'-separated part of label.
func anyPart(label string, pred func(part string) bool) bool {
	for {
		i := strings.IndexByte(label, '#')
		if i < 0 {
			return pred(label)
		}
		if pred(label[:i]) {
			return true
		}
		label = label[i+1:]
	}
}

// LabelMatcherByNames returns a matcher for an explicit set of labels.
func LabelMatcherByNames(names ...string) func(string) bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return func(label string) bool { return set[label] }
}
