// Package compose implements compositional minimization: each component of
// an elaborated model is lumped *before* composition, so the parallel
// product is generated over reduced local automata and the full product
// never materializes.
//
// Per topology instance the package (1) enumerates the reachable local
// configuration graph — local moves only, deterministic breadth-first
// order over interned configurations; (2) partition-refines it with the
// internal/bisim machinery under a Markovian-lumping relation whose
// initial partition separates configurations by their enabled
// (action, role kind, rate annotation, slot) signature and by every
// locally-enabled predicate the measure layer observes; (3) replaces the
// instance's behaviour by the quotient block automaton (block
// representative = lowest interned configuration, block numbering a pure
// function of the model). The reduced model feeds the ordinary compiled
// generator unchanged.
//
// The lumping relation is composition-sound (see
// bisim.MarkovianPartitionFrom): blocks agree on cumulative exponential
// rates, immediate branching, passive multiplicities and slotted offers
// per action and target block, so the composed quotient is Markovian
// bisimilar to the composed original and every STATE_REWARD /
// TRANS_REWARD measure built from the declared predicates is preserved
// exactly.
package compose

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bisim"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// Options tunes Minimize.
type Options struct {
	// Preds are the locally-enabled predicates the analysis observes
	// (measure.StatePreds of the measure set). The initial partition
	// separates configurations that disagree on any of them, so compiled
	// predicate answers (elab.Compiled.Enabled) on the quotient model are
	// exact for these predicates. Predicates not listed here may disagree within a block.
	Preds []lts.StatePred
	// MaxLocalConfigs bounds one instance's local configuration graph
	// (0 = default 1_000_000) — a safety net, not a tuning knob: local
	// graphs are tiny compared to the product they would otherwise inflate.
	MaxLocalConfigs int
}

// InstanceStats reports the reduction achieved on one instance.
type InstanceStats struct {
	// Name is the instance name.
	Name string
	// Configs is the size of the reachable local configuration graph.
	Configs int
	// Blocks is the number of lumped blocks.
	Blocks int
}

// Stats reports per-instance reduction of one Minimize run.
type Stats struct {
	// Instances has one entry per topology instance, in declaration order.
	Instances []InstanceStats
}

// ProductBound returns the product of per-instance automaton sizes before
// and after lumping — the worst-case composed spaces, for diagnostics.
func (st *Stats) ProductBound() (full, minimized float64) {
	full, minimized = 1, 1
	for _, is := range st.Instances {
		full *= float64(is.Configs)
		minimized *= float64(is.Blocks)
	}
	return full, minimized
}

// String renders the reduction summary.
func (st *Stats) String() string {
	var sb strings.Builder
	for i, is := range st.Instances {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %d→%d", is.Name, is.Configs, is.Blocks)
	}
	return sb.String()
}

// Minimize lumps every component of the model and returns the quotient
// model along with the per-instance reduction statistics. The input model
// is not modified. The construction is deterministic: configuration
// identifiers follow breadth-first discovery order, block identifiers
// follow lowest-member order, so the result is a pure function of the
// model and options.
func Minimize(m *elab.Model, opts Options) (*elab.Model, *Stats, error) {
	if m.IsQuotient() {
		return nil, nil, fmt.Errorf("compose: model is already a quotient")
	}
	maxConfigs := opts.MaxLocalConfigs
	if maxConfigs <= 0 {
		maxConfigs = 1_000_000
	}
	qs := make([]elab.InstanceQuotient, m.NumInstances())
	st := &Stats{Instances: make([]InstanceStats, m.NumInstances())}
	for i := 0; i < m.NumInstances(); i++ {
		q, is, err := minimizeInstance(m, i, opts.Preds, maxConfigs)
		if err != nil {
			return nil, nil, fmt.Errorf("compose: instance %s: %w", m.InstanceName(i), err)
		}
		qs[i] = q
		st.Instances[i] = is
	}
	qm, err := m.Quotient(qs)
	if err != nil {
		return nil, nil, err
	}
	return qm, st, nil
}

// minimizeInstance builds the lumped block automaton of one instance.
func minimizeInstance(m *elab.Model, i int, preds []lts.StatePred, maxConfigs int) (elab.InstanceQuotient, InstanceStats, error) {
	name := m.InstanceName(i)
	var zero elab.InstanceQuotient

	// 1. Reachable local configuration graph, breadth-first. Every local
	// move is followed — including blocked interactions, whose targets the
	// quotient move tables must still be able to name — but only fireable
	// moves become transitions of the refinement LTS below.
	in := statespace.NewInterner()
	var configs []elab.LocalConfig
	var moves [][]elab.LocalMove
	keyBuf := make([]byte, 0, 16)
	intern := func(c elab.LocalConfig) (uint32, error) {
		keyBuf = m.AppendLocalKey(keyBuf[:0], c)
		id, fresh := in.Intern(keyBuf)
		if fresh {
			if len(configs) >= maxConfigs {
				return 0, fmt.Errorf("local configuration graph exceeds %d configurations", maxConfigs)
			}
			configs = append(configs, c)
		}
		return id, nil
	}
	init := m.InitialLocal(i)
	if _, err := intern(init); err != nil {
		return zero, InstanceStats{}, err
	}
	for qi := 0; qi < len(configs); qi++ {
		mv, err := m.LocalMovesOf(i, configs[qi])
		if err != nil {
			return zero, InstanceStats{}, err
		}
		moves = append(moves, mv)
		for k := range mv {
			if _, err := intern(mv[k].Next); err != nil {
				return zero, InstanceStats{}, err
			}
		}
	}

	// 2. Refinement LTS over fireable moves, plus the initial partition
	// from the enabled-move signature and the observed predicates.
	l := lts.New(len(configs))
	dstOf := make([][]int, len(configs)) // parallel to moves: target config ids
	for qi := range configs {
		dstOf[qi] = make([]int, len(moves[qi]))
		for k := range moves[qi] {
			keyBuf = m.AppendLocalKey(keyBuf[:0], moves[qi][k].Next)
			id, ok := in.Lookup(keyBuf)
			if !ok {
				return zero, InstanceStats{}, fmt.Errorf("internal: unknown local target")
			}
			dstOf[qi][k] = int(id)
			if m.ActionFireable(i, moves[qi][k].Act.Name) {
				l.AddTransition(qi, int(id), l.LabelIndex(moves[qi][k].Act.Name), moves[qi][k].Act.Rate)
			}
		}
	}
	var myPreds []string
	for _, p := range preds {
		if p.Instance == name {
			myPreds = append(myPreds, p.Action)
		}
	}
	initial := make([]int, len(configs))
	sigIDs := make(map[string]int, 16)
	for qi := range configs {
		sig := enabledSignature(m, i, moves[qi], myPreds)
		id, ok := sigIDs[sig]
		if !ok {
			id = len(sigIDs)
			sigIDs[sig] = id
		}
		initial[qi] = id
	}

	// 3. Lump and build the block automaton. MarkovianPartitionFrom numbers
	// blocks by first member, so block b's representative — its lowest
	// configuration identifier — is its first occurrence in id order.
	blocks := bisim.MarkovianPartitionFrom(l, initial)
	numBlocks := 0
	for _, b := range blocks {
		if b+1 > numBlocks {
			numBlocks = b + 1
		}
	}
	rep := make([]int, numBlocks)
	for b := range rep {
		rep[b] = -1
	}
	for qi, b := range blocks {
		if rep[b] < 0 {
			rep[b] = qi
		}
	}
	q := elab.InstanceQuotient{
		Init:  blocks[0],
		Moves: make([][]elab.LocalMove, numBlocks),
		Descs: make([]string, numBlocks),
	}
	prefix := name + "="
	for b := 0; b < numBlocks; b++ {
		r := rep[b]
		bm := make([]elab.LocalMove, len(moves[r]))
		for k := range moves[r] {
			bm[k] = elab.LocalMove{
				Act:  moves[r][k].Act,
				Next: elab.LocalConfig{Node: blocks[dstOf[r][k]]},
			}
		}
		q.Moves[b] = bm
		q.Descs[b] = strings.TrimPrefix(m.DescribeLocal(i, configs[r]), prefix)
	}
	return q, InstanceStats{Name: name, Configs: len(configs), Blocks: numBlocks}, nil
}

// enabledSignature renders the full enabled-move signature of one local
// configuration — action name, role kind, rate kind, priority, weight or
// rate bits, slot, for every local move (blocked interactions included) —
// plus the truth of each observed predicate. Configurations with different
// signatures are separated by the initial partition.
func enabledSignature(m *elab.Model, i int, mv []elab.LocalMove, preds []string) string {
	terms := make([]string, 0, len(mv))
	for k := range mv {
		r := mv[k].Act.Rate
		var quant uint64
		switch r.Kind {
		case rates.Exp:
			quant = math.Float64bits(r.Lambda)
		case rates.Immediate, rates.Passive:
			quant = math.Float64bits(r.Weight)
		}
		kind := 0
		if m.ActionFireable(i, mv[k].Act.Name) {
			kind = 1
		}
		terms = append(terms, fmt.Sprintf("%s/%d/%d/%d/%x/%d",
			mv[k].Act.Name, kind, r.Kind, r.Priority, quant, r.Slot))
	}
	sort.Strings(terms)
	var sb strings.Builder
	for _, t := range terms {
		sb.WriteString(t)
		sb.WriteByte('|')
	}
	for _, a := range preds {
		on := false
		for k := range mv {
			if mv[k].Act.Name == a {
				on = true
				break
			}
		}
		if on {
			sb.WriteString("!1")
		} else {
			sb.WriteString("!0")
		}
	}
	return sb.String()
}
