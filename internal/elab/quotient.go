package elab

import "fmt"

// InstanceQuotient is the reduced local automaton of one instance, produced
// by compositional minimization (internal/compose): the instance's reachable
// local configuration graph lumped into blocks. In a quotient model the
// local configuration of the instance is LocalConfig{Node: block, Args: nil}
// — the block identifier takes the place of the process node, and the
// canonical configuration encoding (AppendLocalKey) is unchanged.
type InstanceQuotient struct {
	// Init is the initial block.
	Init int
	// Moves holds, per block, the local moves of the block's representative
	// configuration with each Next retargeted to its block. Move lists are
	// shared by every state in that block and must not be mutated.
	Moves [][]LocalMove
	// Descs describes each block's representative configuration, carried
	// into Describe so diagnostics on a quotient model stay readable.
	Descs []string
}

// Quotient returns a model over the same topology in which every instance's
// behaviour is replaced by the given reduced automaton (one InstanceQuotient
// per instance, in declaration order). The returned model shares the
// immutable topology tables with the receiver and satisfies the same
// concurrency contract; the receiver is not modified.
//
// Soundness is the caller's bargain: the quotient model composes exactly
// like the original iff each lumping is a Markovian bisimulation that also
// respects synchronization multiplicities and the locally-enabled
// predicates the analysis observes — which is what internal/compose
// constructs. A compiled predicate (Compiled.Enabled) on a quotient model
// answers from the block representative's moves, so only predicates the
// lumping was refined against are meaningful.
func (m *Model) Quotient(qs []InstanceQuotient) (*Model, error) {
	if len(qs) != len(m.insts) {
		return nil, fmt.Errorf("elab: quotient has %d automata for %d instances", len(qs), len(m.insts))
	}
	if m.quot != nil {
		return nil, fmt.Errorf("elab: model is already a quotient")
	}
	q := *m
	q.quot = qs
	return &q, nil
}

// IsQuotient reports whether the model is a compositional quotient.
func (m *Model) IsQuotient() bool { return m.quot != nil }

// ActionFireable reports whether the named action of instance i can ever
// fire in the composition: internal actions and attached interactions can,
// unattached (blocked) interactions cannot — they stay locally enabled but
// produce no transitions. Compositional minimization uses this to walk the
// local configuration graph along exactly the moves that advance the
// instance.
func (m *Model) ActionFireable(i int, action string) bool {
	r, ok := m.insts[i].roles[action]
	if !ok {
		return true // internal action
	}
	return r.kind != roleBlocked
}

// InitialLocal returns the initial local configuration of instance i.
func (m *Model) InitialLocal(i int) LocalConfig {
	if m.quot != nil {
		return LocalConfig{Node: m.quot[i].Init}
	}
	return m.insts[i].init
}
