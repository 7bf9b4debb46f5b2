package lts

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/elab"
	"repro/internal/fault"
	"repro/internal/faultinject"
	"repro/internal/statespace"
)

// StatePred names a local-enabledness predicate to evaluate in every
// generated state: true iff the instance's current configuration offers
// the action locally (whether or not the topology lets it fire).
type StatePred = elab.Pred

// GenerateOptions tunes state-space generation.
type GenerateOptions struct {
	// MaxStates aborts generation when exceeded (0 = DefaultMaxStates).
	// The bound is enforced at intern time: generation fails the moment a
	// fresh state beyond the limit is discovered, so the state table never
	// overshoots it.
	MaxStates int
	// Predicates are evaluated in every state and stored in the LTS.
	Predicates []StatePred
	// Ctx cancels generation: it is polled at every BFS level boundary and
	// before each predicate column, and a cancellation surfaces as a
	// *fault.CanceledError (phase "lts.generate", Iteration = level). A
	// nil context disables polling. Cancellation never perturbs the states
	// already interned — it only stops the exploration early.
	Ctx context.Context
	// Fold enables vanishing-state folding (the -compose minimize path):
	// successor states whose maximal-progress immediate branches can be
	// resolved eagerly are never interned — each incoming transition is
	// redirected to the branch targets with its rate scaled by the branch
	// probabilities, exactly the elimination ctmc.Build would perform, so
	// the tangible chain is unchanged. Transition labels folded away that
	// the Observed matcher selects are preserved as per-edge reward
	// attributions (EdgeAux/AuxTerms), keeping every TRANS_REWARD measure
	// exact. Nil disables folding (the default, bit-identical to previous
	// releases).
	Fold *FoldOptions
}

// FoldOptions tunes vanishing-state folding during generation.
type FoldOptions struct {
	// Observed selects the transition labels whose firing frequency must
	// remain computable on the folded system (the labels named by
	// TRANS_REWARD measure clauses). Folded transitions with an observed
	// label are recorded as reward attributions on the redirected edges.
	// Nil observes nothing.
	Observed func(label string) bool

	// memoLimit overrides foldMemoLimit (tests only; 0 = default).
	memoLimit int
}

// DefaultMaxStates is the state-count bound of generation when
// GenerateOptions.MaxStates is unset: every consumer of an LTS lays out an
// O(states) CSR row index, so the bound caps that allocation too. The
// tests' .aut reader holds a header's declared state count to it.
const DefaultMaxStates = 2_000_000

// TooManyStatesError reports that generation exceeded MaxStates.
type TooManyStatesError struct {
	// Limit is the configured bound.
	Limit int
	// States is the number of states interned when generation aborted;
	// the intern-time check guarantees States == Limit (no overshoot).
	States int
}

// Error implements error.
func (e *TooManyStatesError) Error() string {
	return fmt.Sprintf("lts: state space exceeds %d states", e.Limit)
}

// generateCalls counts Generate invocations process-wide. It exists for
// tests that assert how often a sweep regenerates its state space (the
// rate-parametric sweep path must generate once per structure, not once
// per point); it never influences generation itself.
var generateCalls atomic.Int64

// GenerateCalls returns the number of Generate invocations so far in this
// process — a test hook for pinning generate-once behaviour of sweeps.
func GenerateCalls() int64 { return generateCalls.Load() }

// Generate explores the reachable state space of an elaborated model and
// returns it as an explicit LTS. The model is compiled first
// (elab.Model.Compile): every instance's local configurations become
// dense local ids with precomputed move tables, and a global state is a
// fixed-width tuple of local ids interned in place by a
// statespace.TupleTable, whose dense ids are the state identifiers.
// Exploration is breadth-first and inline, so state identifiers, the CSR
// edge order, label ids, predicate columns and the attribution pool are
// pure functions of the model.
func Generate(m *elab.Model, opts GenerateOptions) (*LTS, error) {
	generateCalls.Add(1)
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	c := m.Compile(opts.Predicates)
	n := c.NumInstances()

	var fc *foldCtx
	if opts.Fold != nil {
		fc = newFoldCtx(c, opts.Fold)
	}

	states := statespace.NewTupleTable(n)
	intern := func(t []uint32) (uint32, error) {
		id, fresh := states.Intern(t)
		if fresh && states.Len() > maxStates {
			return 0, &TooManyStatesError{Limit: maxStates, States: maxStates}
		}
		return id, nil
	}
	tuple := func(s int) []uint32 { return states.Tuple(uint32(s)) }

	s0 := c.Initial()
	succ, next, err := c.Successors(s0, nil, nil)
	if err != nil {
		// Surface composition errors (e.g. active-active sync) immediately.
		return nil, err
	}
	if _, err := intern(s0); err != nil {
		return nil, err
	}

	l := NewShared(0, statespace.NewSymbols())
	l.Initial = 0
	// States are expanded in identifier order, so the CSR is assembled
	// row by row.
	rows := statespace.NewRowBuilder()

	// Compiled label ids map to symbol-table indices on first use, so
	// labels are interned in edge order exactly as their strings would be.
	var labelSym []int32
	symOf := func(id int32) int32 {
		for int(id) >= len(labelSym) {
			labelSym = append(labelSym, -1)
		}
		if labelSym[id] < 0 {
			labelSym[id] = int32(l.syms.Intern(c.Label(id)))
		}
		return labelSym[id]
	}

	// Compiled rate ids map to CSR rate ids the same way, so the CSR rate
	// table is in first-use edge order, as RowBuilder.Add would build it.
	var rateCSR []int32
	csrRate := func(id int32) int32 {
		for int(id) >= len(rateCSR) {
			rateCSR = append(rateCSR, -1)
		}
		if rateCSR[id] < 0 {
			r := c.Rate(id)
			rateCSR[id] = rows.InternRate(&r)
		}
		return rateCSR[id]
	}

	// Attribution pool: folded reward attributions are deduplicated by
	// their canonical byte signature (label index + count bits per term)
	// and handed out as 1-based handles in edge order — a pure function of
	// the model, like state identifiers.
	auxStart := []int32{0}
	var (
		auxLabel []int32
		auxCount []float64
		auxIDs   map[string]int32
		auxSig   []byte
		auxLabs  []int32
	)
	internAux := func(terms []auxTerm) int32 {
		if len(terms) == 0 {
			return 0
		}
		auxSig = auxSig[:0]
		auxLabs = auxLabs[:0]
		for i := range terms {
			li := symOf(terms[i].label)
			auxLabs = append(auxLabs, li)
			auxSig = binary.LittleEndian.AppendUint32(auxSig, uint32(li))
			auxSig = binary.LittleEndian.AppendUint64(auxSig, math.Float64bits(terms[i].count))
		}
		if auxIDs == nil {
			auxIDs = make(map[string]int32, 64)
		}
		if id, ok := auxIDs[string(auxSig)]; ok {
			return id
		}
		auxLabel = append(auxLabel, auxLabs...)
		for i := range terms {
			auxCount = append(auxCount, terms[i].count)
		}
		auxStart = append(auxStart, int32(len(auxLabel)))
		id := int32(len(auxStart) - 1)
		auxIDs[string(auxSig)] = id
		return id
	}

	expandErr := func(qi int, err error) error {
		return fmt.Errorf("lts: expanding state %s: %w", m.Describe(c.State(tuple(qi))), err)
	}

	// expand appends the (possibly folded) transitions of state qi as CSR
	// row qi. Successor lists and target tuples live in reused slabs;
	// each target is interned before the next expansion overwrites them.
	expand := func(qi int) error {
		faultinject.MaybePanic(faultinject.SiteGenerateExpand, qi)
		var err error
		succ, next, err = c.Successors(tuple(qi), succ[:0], next[:0])
		if err != nil {
			return expandErr(qi, err)
		}
		if fc != nil {
			ts, err := fc.foldTransitions(succ, next)
			if err != nil {
				return expandErr(qi, err)
			}
			for i := range ts {
				dst, err := intern(ts[i].next)
				if err != nil {
					return err
				}
				// The edge label takes its symbol before the
				// attribution's labels do.
				label := symOf(ts[i].label)
				rows.Add(int32(dst), label, internAux(ts[i].aux), ts[i].rate)
			}
		} else {
			// The edge loop of every unfolded generation: the intern,
			// the MaxStates check and the label and rate lookups are
			// inline, and symOf and csrRate run only on an id's first
			// use.
			for k := range succ {
				dst, fresh := states.Intern(next[k*n : (k+1)*n])
				if fresh && states.Len() > maxStates {
					return &TooManyStatesError{Limit: maxStates, States: maxStates}
				}
				label, rate := succ[k].Label, succ[k].Rate
				sym, rid := int32(-1), int32(-1)
				if int(label) < len(labelSym) {
					sym = labelSym[label]
				}
				if sym < 0 {
					sym = symOf(label)
				}
				if int(rate) < len(rateCSR) {
					rid = rateCSR[rate]
				}
				if rid < 0 {
					rid = csrRate(rate)
				}
				rows.AddID(int32(dst), sym, 0, rid)
			}
		}
		rows.EndRow()
		return nil
	}

	for level, levelStart := 0, 0; levelStart < states.Len(); level++ {
		if err := fault.Check(opts.Ctx, "lts.generate", -1, level); err != nil {
			return nil, err
		}
		// One panic guard per level: a crash in the compiled tables or the
		// model's term interpretation (or an injected fault keyed by the
		// state's dense identifier) surfaces as an error naming the state
		// being expanded instead of taking down the process.
		levelEnd, qi := states.Len(), levelStart
		err := fault.Guard("lts.generate", 0, "", func() error {
			for ; qi < levelEnd; qi++ {
				if err := expand(qi); err != nil {
					return err
				}
			}
			return nil
		})
		if wpe, ok := err.(*fault.WorkerPanicError); ok {
			wpe.Task = fmt.Sprintf("state %d", qi)
			return nil, expandErr(qi, wpe)
		}
		if err != nil {
			return nil, err
		}
		levelStart = levelEnd
	}
	numStates := states.Len()
	l.NumStates = numStates
	l.setCSR(rows.CSR())
	if len(auxStart) > 1 {
		l.setAuxPool(auxStart, auxLabel, auxCount)
	}
	// The tuple slab is the state table the finished system retains (for
	// descriptions), and all of it: the table's hash index is left to the
	// collector, so the bytes MemStats reports, slab capacity included,
	// are the bytes the system keeps.
	slab := states.Tuples()
	l.SetMemBytes(4 * cap(slab))

	// Descriptions are lazy: a state's tuple is expanded into local
	// configurations and rendered only when actually requested
	// (diagnostics, DOT output) — bulk sweeps never render one.
	l.descFn = func(s int) string { return m.Describe(c.State(slab[s*n : (s+1)*n : (s+1)*n])) }

	if len(opts.Predicates) > 0 {
		l.PredNames = make([]string, len(opts.Predicates))
		l.Preds = make([][]bool, len(opts.Predicates))
		for p, pred := range opts.Predicates {
			if err := fault.Check(opts.Ctx, "lts.predicates", p, -1); err != nil {
				return nil, err
			}
			l.PredNames[p] = pred.Name()
			col := make([]bool, numStates)
			for s := range col {
				ok, err := c.Enabled(p, tuple(s))
				if err != nil {
					return nil, fmt.Errorf("lts: predicate %s: %w", pred.Name(), err)
				}
				col[s] = ok
			}
			l.Preds[p] = col
		}
	}
	return l, nil
}
