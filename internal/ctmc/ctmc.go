// Package ctmc extracts a continuous-time Markov chain from a rated
// labelled transition system and solves it.
//
// States with enabled immediate actions are *vanishing*: by maximal
// progress the immediate actions pre-empt the exponential ones, the
// highest priority level wins, and weights resolve the remaining choice
// probabilistically. Vanishing states are eliminated by propagating their
// absorption distributions (cycles of immediate actions — timeless traps —
// are rejected). The result is a CTMC over the tangible states, together
// with enough bookkeeping to compute the steady-state frequency of any
// labelled transition, including immediate ones, for reward-based
// measures.
package ctmc

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/lts"
	"repro/internal/rates"
)

// Entry is one rate entry of the generator matrix.
type Entry struct {
	// Col is the destination tangible-state index.
	Col int
	// Rate is the transition rate.
	Rate float64
}

// branch is an immediate branch of a vanishing state.
type branch struct {
	dst      int // LTS state index
	prob     float64
	ltsTrans int // index into the LTS transition slice
}

// expEdge is an exponential transition of a tangible state. Its rate
// lives in CTMC.expRate, which Rebind rewrites, so clones share the edges.
type expEdge struct {
	src, dst int // LTS state indices
	ltsTrans int
}

// CTMC is the extracted chain.
type CTMC struct {
	// N is the number of tangible states.
	N int
	// Rows holds the off-diagonal generator entries per tangible state.
	Rows [][]Entry
	// entries is the slab Rows are carved from, row after row.
	entries []Entry
	// Exit is the total outflow rate per tangible state.
	Exit []float64
	// Initial is the initial probability distribution over tangible
	// states (the vanishing initial state, if any, is resolved).
	Initial []float64

	// TangibleOf maps CTMC indices to LTS state indices.
	TangibleOf []int
	// ctmcIndex maps LTS state indices to CTMC indices (-1 = vanishing).
	ctmcIndex []int

	l *lts.LTS
	// vanishing bookkeeping for throughput computations.
	vanishing []int      // LTS indices of vanishing states, topological order
	branches  [][]branch // per vanishing state (indexed by order position)
	vanPos    []int      // LTS state -> position in vanishing, or -1
	expEdges  []expEdge
	expRate   []float64 // per expEdge: its current rate

	// Rate-parametric bookkeeping, populated only when the source LTS
	// carries rate slots (lts.NumRateSlots > 0). Every generator entry's
	// rate is the ordered sum of its contribution terms; the terms are
	// flattened CSR-style across entries in row-major, column-ascending
	// order (the same order Rows stores entries). Rebind re-sums the term
	// lists with new slot values — the identical sequence of float
	// additions Build performed — so a rebound chain is bit-identical to a
	// fresh build at the same rates.
	numSlots  int
	termStart []int32    // len = total entries + 1
	terms     []rateTerm // flattened contribution terms
	expSlots  []int32    // per expEdge: slot of its rate (0 = constant)

	// Cached Poisson weight vectors for uniformization, keyed by (q·t,
	// epsilon); see TransientFromCtx. Guarded by poissonMu.
	poissonMu sync.Mutex
	poisson   map[poissonKey][]float64

	// plan caches the structural solve analysis (reachable bottom
	// component and its incoming-CSR skeleton). Rate-only rebinds cannot
	// change it, so Clone shares the pointer and the analysis runs once
	// per built structure however many clones a sweep solves. Nothing
	// resets it: a chain whose structure changes is a new Build. See
	// solvePlan.
	plan *solvePlan
}

// rateTerm is one contribution to a generator entry. A slot-0 term is a
// constant: its coeff is the full contribution (λ, or λ·p through a
// vanishing state). A slot-k term contributes values[k-1] · coeff, where
// coeff is the absorption probability the slotted rate is multiplied by
// (1 for a direct tangible-to-tangible edge).
type rateTerm struct {
	slot  int32
	coeff float64
}

// Common construction errors.
var (
	// ErrTimelessTrap reports a cycle of immediate transitions.
	ErrTimelessTrap = errors.New("ctmc: timeless trap (cycle of immediate transitions)")
	// ErrNotRated reports a reachable transition without an active rate in
	// a tangible state.
	ErrNotRated = errors.New("ctmc: tangible state has a passive or untimed transition; the model is not fully rated")
	// ErrMultipleBSCC reports a reducible chain with several reachable
	// bottom components.
	ErrMultipleBSCC = errors.New("ctmc: multiple reachable bottom strongly connected components")
	// ErrStructuralRebind reports a Rebind that would change the chain's
	// structure rather than its rate values.
	ErrStructuralRebind = errors.New("ctmc: rebind would change the chain structure")
)

// RebindError details why a Rebind was rejected. It wraps
// ErrStructuralRebind when the requested values would alter the chain's
// structure (a non-positive or non-finite rate removes an edge or changes
// the tangible/vanishing classification, which a rate-only rewrite cannot
// express).
type RebindError struct {
	// Slot is the 1-based offending slot, or 0 for a length mismatch.
	Slot int
	// Value is the offending value (meaningful when Slot > 0).
	Value float64
	// Want and Got are the expected and supplied value counts.
	Want, Got int
}

// Error implements error.
func (e *RebindError) Error() string {
	if e.Slot == 0 {
		return fmt.Sprintf("ctmc: rebind expects %d slot values, got %d", e.Want, e.Got)
	}
	return fmt.Sprintf("ctmc: rebind slot %d to %v: %v", e.Slot, e.Value, ErrStructuralRebind)
}

// Unwrap exposes ErrStructuralRebind for errors.Is when the failure is a
// structure-changing value rather than a length mismatch.
func (e *RebindError) Unwrap() error {
	if e.Slot == 0 {
		return nil
	}
	return ErrStructuralRebind
}

// Build extracts the CTMC from a rated LTS.
//
// Every per-state accumulation — absorption distributions, generator
// rows and their Rebind term lists — runs on dense stamped accumulators
// over state indices, and every per-state list is carved from one slab,
// so a build allocates O(1) slices however many states the chain has.
// The slabs whose sizes a cheap pass can know — the immediate branches,
// the exponential edges with their rates and slots, the generator
// entries and the Rebind terms — are counted first and allocated once at
// their exact size, so no append ever regrows them.
func Build(l *lts.LTS) (*CTMC, error) {
	n := l.NumStates
	c := &CTMC{l: l, plan: &solvePlan{}}

	// Classify states, counting the maximal-priority immediate branches
	// so the branch slab is carved at its exact size.
	isVanishing := make([]bool, n)
	numVanishing, numBranches := 0, 0
	for s := 0; s < n; s++ {
		sp := l.Out(s)
		maxPrio, top := math.MinInt32, 0
		for k := 0; k < sp.Len(); k++ {
			if r := sp.Rate(k); r.Kind == rates.Immediate {
				if r.Priority > maxPrio {
					maxPrio, top = r.Priority, 0
				}
				if r.Priority == maxPrio {
					top++
				}
			}
		}
		if top > 0 {
			isVanishing[s] = true
			numVanishing++
			numBranches += top
		}
	}

	// Immediate branch structure per vanishing state: state s's branches
	// are brSlab[brOff[s]:brOff[s+1]].
	c.vanPos = make([]int, n)
	brOff := make([]int32, n+1)
	brSlab := make([]branch, 0, numBranches)
	for s := 0; s < n; s++ {
		c.vanPos[s] = -1
		brOff[s] = int32(len(brSlab))
		if !isVanishing[s] {
			continue
		}
		sp := l.Out(s)
		maxPrio := math.MinInt32
		for k := 0; k < sp.Len(); k++ {
			if r := sp.Rate(k); r.Kind == rates.Immediate && r.Priority > maxPrio {
				maxPrio = r.Priority
			}
		}
		total := 0.0
		base := l.EdgeBase(s)
		for k := 0; k < sp.Len(); k++ {
			if r := sp.Rate(k); r.Kind == rates.Immediate && r.Priority == maxPrio {
				brSlab = append(brSlab, branch{dst: int(sp.Dst[k]), prob: r.Weight, ltsTrans: base + k})
				total += r.Weight
			}
		}
		for i := brOff[s]; i < int32(len(brSlab)); i++ {
			brSlab[i].prob /= total
		}
	}
	brOff[n] = int32(len(brSlab))
	branchesOf := func(s int) []branch { return brSlab[brOff[s]:brOff[s+1]:brOff[s+1]] }

	// Topological order of the vanishing subgraph (Kahn); a leftover node
	// means a timeless trap. All scans run in ascending state order so the
	// elimination order — and with it every floating-point accumulation
	// downstream — is the same on every run.
	indeg := make([]int32, n)
	for _, b := range brSlab {
		if isVanishing[b.dst] {
			indeg[b.dst]++
		}
	}
	queue := make([]int, 0, numVanishing)
	for s := 0; s < n; s++ {
		if isVanishing[s] && indeg[s] == 0 {
			queue = append(queue, s)
		}
	}
	c.vanishing = make([]int, 0, numVanishing)
	c.branches = make([][]branch, 0, numVanishing)
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		c.vanPos[s] = len(c.vanishing)
		c.vanishing = append(c.vanishing, s)
		c.branches = append(c.branches, branchesOf(s))
		for _, b := range branchesOf(s) {
			if isVanishing[b.dst] {
				indeg[b.dst]--
				if indeg[b.dst] == 0 {
					queue = append(queue, b.dst)
				}
			}
		}
	}
	if len(c.vanishing) != numVanishing {
		return nil, ErrTimelessTrap
	}

	// Absorption distributions of vanishing states over tangible states,
	// in reverse topological order. Each distribution is sorted by target
	// state, so later accumulations visit targets in a canonical order;
	// each target's probability is summed in branch order.
	absOff := make([]int32, 2*len(c.vanishing)) // position i: absSlab[absOff[2i]:absOff[2i+1]]
	var absSlab []absorbEntry
	absorb := func(i int) []absorbEntry { return absSlab[absOff[2*i]:absOff[2*i+1]] }
	acc := newDenseAcc(n)
	for i := len(c.vanishing) - 1; i >= 0; i-- {
		acc.reset()
		for _, b := range c.branches[i] {
			if isVanishing[b.dst] {
				for _, ae := range absorb(c.vanPos[b.dst]) {
					acc.add(ae.tgt, b.prob*ae.prob)
				}
			} else {
				acc.add(b.dst, b.prob)
			}
		}
		slices.Sort(acc.touched)
		absOff[2*i] = int32(len(absSlab))
		for _, t := range acc.touched {
			absSlab = append(absSlab, absorbEntry{tgt: int(t), prob: acc.sum[t]})
		}
		absOff[2*i+1] = int32(len(absSlab))
	}

	// Index tangible states.
	c.ctmcIndex = make([]int, n)
	c.TangibleOf = make([]int, 0, n-numVanishing)
	for s := 0; s < n; s++ {
		if isVanishing[s] {
			c.ctmcIndex[s] = -1
			continue
		}
		c.ctmcIndex[s] = len(c.TangibleOf)
		c.TangibleOf = append(c.TangibleOf, s)
	}
	c.N = len(c.TangibleOf)
	if c.N == 0 {
		return nil, ErrTimelessTrap
	}

	// Size the exponential edges, the generator entries and the Rebind
	// terms exactly before filling them: a counting pass stamps each row's
	// off-diagonal columns, counting the distinct ones (entries) and every
	// contribution to them (terms), and rejects unrated transitions in the
	// order the fill would meet them.
	numExp, numEntries, numTerms := 0, 0, 0
	acc = newDenseAcc(c.N)
	for ci, s := range c.TangibleOf {
		acc.reset()
		count := func(col int) {
			if col == ci {
				return
			}
			numTerms++
			if acc.mark[col] != acc.stamp {
				acc.mark[col] = acc.stamp
				numEntries++
			}
		}
		sp := l.Out(s)
		for k := 0; k < sp.Len(); k++ {
			switch r := sp.Rate(k); r.Kind {
			case rates.Exp:
			case rates.Immediate:
				continue // impossible: s is tangible
			default:
				return nil, fmt.Errorf("%w (state %d, label %q, rate %v)",
					ErrNotRated, s, l.LabelName(int(sp.Label[k])), r)
			}
			numExp++
			if dst := int(sp.Dst[k]); isVanishing[dst] {
				for _, ae := range absorb(c.vanPos[dst]) {
					count(c.ctmcIndex[ae.tgt])
				}
			} else {
				count(c.ctmcIndex[dst])
			}
		}
	}

	// Generator rows, accumulated per column in edge order. When the LTS
	// carries rate slots, each contribution is also recorded as a term
	// with its column, in the exact accumulation order, so Rebind can
	// replay the identical sequence of float additions with new slot
	// values.
	c.numSlots = l.NumRateSlots()
	parametric := c.numSlots > 0
	var contrib []colTerm // the current row's terms, in accumulation order
	c.expEdges = make([]expEdge, 0, numExp)
	c.expRate = make([]float64, 0, numExp)
	if parametric {
		c.expSlots = make([]int32, 0, numExp)
		c.terms = make([]rateTerm, 0, numTerms)
		c.termStart = make([]int32, 1, numEntries+1)
	}
	entries := make([]Entry, 0, numEntries)
	rowOff := make([]int32, c.N+1)
	c.Exit = make([]float64, c.N)
	for ci, s := range c.TangibleOf {
		acc.reset()
		contrib = contrib[:0]
		sp := l.Out(s)
		base := l.EdgeBase(s)
		for k := 0; k < sp.Len(); k++ {
			r := sp.Rate(k)
			if r.Kind != rates.Exp {
				continue
			}
			dst := int(sp.Dst[k])
			c.expEdges = append(c.expEdges, expEdge{src: s, dst: dst, ltsTrans: base + k})
			c.expRate = append(c.expRate, r.Lambda)
			if parametric {
				c.expSlots = append(c.expSlots, int32(r.Slot))
			}
			if isVanishing[dst] {
				for _, ae := range absorb(c.vanPos[dst]) {
					col := c.ctmcIndex[ae.tgt]
					acc.add(col, r.Lambda*ae.prob)
					if parametric {
						contrib = append(contrib, colTerm{col: int32(col), term: makeTerm(r, ae.prob)})
					}
				}
			} else {
				col := c.ctmcIndex[dst]
				acc.add(col, r.Lambda)
				if parametric {
					contrib = append(contrib, colTerm{col: int32(col), term: makeTerm(r, 1)})
				}
			}
		}
		// Canonical column order: the solver and the transient iteration sum
		// row entries in sequence, so a stable order keeps results
		// reproducible bit for bit (and the ascending access pattern is
		// friendlier to the flattened Gauss-Seidel sweeps). Self-loops do
		// not affect the steady state and are dropped.
		slices.Sort(acc.touched)
		rowOff[ci] = int32(len(entries))
		for _, col := range acc.touched {
			if int(col) != ci {
				entries = append(entries, Entry{Col: int(col), Rate: acc.sum[col]})
			}
		}
		for _, e := range entries[rowOff[ci]:] {
			c.Exit[ci] += e.Rate
		}
		if parametric {
			// Flatten the kept entries' term lists in the row's final
			// (column-ascending) order; a stable sort keeps each column's
			// terms in accumulation order. Self-loop terms are dropped with
			// their entries.
			slices.SortStableFunc(contrib, func(a, b colTerm) int { return cmp.Compare(a.col, b.col) })
			for j := 0; j < len(contrib); {
				col := contrib[j].col
				for ; j < len(contrib) && contrib[j].col == col; j++ {
					if int(col) != ci {
						c.terms = append(c.terms, contrib[j].term)
					}
				}
				if int(col) != ci {
					c.termStart = append(c.termStart, int32(len(c.terms)))
				}
			}
		}
	}
	rowOff[c.N] = int32(len(entries))
	c.entries = entries
	c.Rows = make([][]Entry, c.N)
	for ci := range c.Rows {
		c.Rows[ci] = entries[rowOff[ci]:rowOff[ci+1]:rowOff[ci+1]]
	}

	// Initial distribution.
	c.Initial = make([]float64, c.N)
	if isVanishing[l.Initial] {
		for _, ae := range absorb(c.vanPos[l.Initial]) {
			c.Initial[c.ctmcIndex[ae.tgt]] += ae.prob
		}
	} else {
		c.Initial[c.ctmcIndex[l.Initial]] = 1
	}
	return c, nil
}

// absorbEntry is one target of an absorption distribution.
type absorbEntry struct {
	tgt  int // tangible LTS state
	prob float64
}

// colTerm is one generator-row contribution term and its column.
type colTerm struct {
	col  int32
	term rateTerm
}

// denseAcc sums float contributions by index. Each reset opens a new
// stamp, so clearing costs nothing; touched lists the indices summed
// since, in first-touch order, and each sum starts from zero and adds its
// contributions in call order.
type denseAcc struct {
	sum     []float64
	mark    []int32
	stamp   int32
	touched []int32
}

func newDenseAcc(n int) *denseAcc {
	return &denseAcc{sum: make([]float64, n), mark: make([]int32, n)}
}

func (a *denseAcc) reset() {
	a.stamp++
	a.touched = a.touched[:0]
}

func (a *denseAcc) add(i int, v float64) {
	if a.mark[i] != a.stamp {
		a.mark[i] = a.stamp
		a.sum[i] = 0
		a.touched = append(a.touched, int32(i))
	}
	a.sum[i] += v
}

// makeTerm records one generator-entry contribution: an exponential rate
// r reaching the entry's column with absorption probability prob (1 for a
// direct tangible-to-tangible edge). Slot-0 terms precompute the full
// constant contribution; slotted terms keep the probability as the
// coefficient of the future slot value. Multiplying by a probability of
// exactly 1 is exact in IEEE arithmetic, so both forms replay Build's
// accumulation bit for bit.
func makeTerm(r rates.Rate, prob float64) rateTerm {
	if r.Slot > 0 {
		return rateTerm{slot: int32(r.Slot), coeff: prob}
	}
	return rateTerm{coeff: r.Lambda * prob}
}

// Rebind rewrites every generator entry, exit rate, and exponential-edge
// rate for the given slot values (values[k-1] is the new rate of slot k)
// in O(edges), without touching the chain's structure: states, entry
// columns, vanishing elimination, and branching probabilities are all
// preserved. Each entry is recomputed by summing its recorded contribution
// terms in the order Build accumulated them, so a rebound chain is
// bit-identical to a fresh Build of the same model elaborated at the new
// rates.
//
// Every value must be positive and finite — a zero, negative, or infinite
// rate would remove an edge or change the tangible/vanishing
// classification, which is a structural change Rebind cannot express; such
// requests fail with a *RebindError wrapping ErrStructuralRebind, and a
// length mismatch fails with a *RebindError, in both cases leaving the
// chain untouched.
func (c *CTMC) Rebind(values []float64) error {
	if len(values) != c.numSlots {
		return &RebindError{Want: c.numSlots, Got: len(values)}
	}
	for i, v := range values {
		if !(v > 0) || math.IsInf(v, 0) {
			return &RebindError{Slot: i + 1, Value: v}
		}
	}
	if c.numSlots == 0 {
		return nil // slot-free chain, empty rebind: nothing to rewrite
	}
	ei := 0
	for ci := range c.Rows {
		row := c.Rows[ci]
		for j := range row {
			lo, hi := c.termStart[ei], c.termStart[ei+1]
			sum := 0.0
			for k := lo; k < hi; k++ {
				t := c.terms[k]
				if t.slot > 0 {
					sum += values[t.slot-1] * t.coeff
				} else {
					sum += t.coeff
				}
			}
			row[j].Rate = sum
			ei++
		}
		exit := 0.0
		for _, e := range row {
			exit += e.Rate
		}
		c.Exit[ci] = exit
	}
	for i, s := range c.expSlots {
		if s > 0 {
			c.expRate[i] = values[s-1]
		}
	}
	// The uniformization weight cache keys on q·t, which is derived from
	// the (now rewritten) exit rates; stale entries for other rate values
	// would only waste memory, and a changed q invalidates them via the
	// key, but drop them anyway so long sweeps do not accumulate vectors.
	c.poissonMu.Lock()
	c.poisson = nil
	c.poissonMu.Unlock()
	if debugChecks {
		if err := c.debugCheckPlan(); err != nil {
			return &InvariantError{Err: err}
		}
	}
	return nil
}

// debugChecks turns on expensive internal consistency assertions —
// currently the post-Rebind check that the cached structural solve plan
// still matches a from-scratch analysis (a rate-only rebind must preserve
// reachability and SCC structure; a violation surfaces as an
// *InvariantError, since it means the rebind validation let a structural
// change through). The property tests enable it; the program leaves it
// off.
var debugChecks = false

// InvariantError reports a violated internal consistency invariant — a
// bug in this package, not a property of the input. The fault-tolerance
// layer treats it accordingly: sweeps abort on it, and it is reported
// as-is.
type InvariantError struct {
	// Err describes the violated invariant.
	Err error
}

// Error implements the error interface.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("ctmc: internal invariant violated: %v", e.Err)
}

// Unwrap exposes the underlying description to errors.Is/As.
func (e *InvariantError) Unwrap() error { return e.Err }

// Clone returns a chain that shares all immutable structure with c (the
// LTS, vanishing bookkeeping, tangible indexing, exponential edges,
// contribution terms) but owns exactly the state Rebind rewrites —
// generator rows, exit rates, exponential-edge rates — and its own
// uniformization cache, so concurrent sweep workers can Rebind and solve
// private clones of one built chain.
func (c *CTMC) Clone() *CTMC {
	out := &CTMC{
		N:          c.N,
		Rows:       make([][]Entry, len(c.Rows)),
		Exit:       append([]float64(nil), c.Exit...),
		Initial:    c.Initial,
		TangibleOf: c.TangibleOf,
		ctmcIndex:  c.ctmcIndex,
		l:          c.l,
		vanishing:  c.vanishing,
		branches:   c.branches,
		vanPos:     c.vanPos,
		expEdges:   c.expEdges,
		expRate:    append([]float64(nil), c.expRate...),
		numSlots:   c.numSlots,
		termStart:  c.termStart,
		terms:      c.terms,
		expSlots:   c.expSlots,
		plan:       c.plan,
	}
	out.entries = slices.Clone(c.entries)
	lo := 0
	for i, row := range c.Rows {
		hi := lo + len(row)
		out.Rows[i] = out.entries[lo:hi:hi]
		lo = hi
	}
	return out
}
