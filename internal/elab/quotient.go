package elab

import (
	"fmt"
	"strconv"
	"strings"
)

// InstanceQuotient is the reduced local automaton of one instance, produced
// by compositional minimization (internal/compose): the instance's reachable
// local configuration graph lumped into blocks. In a quotient model the
// local configuration of the instance is LocalConfig{Node: block, Args: nil}
// — the block identifier takes the place of the process node, and the
// canonical state encoding (AppendKey) is unchanged.
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
// constructs. LocallyEnabled on a quotient model answers from the block
// representative's moves, so only predicates the lumping was refined
// against are meaningful.
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

// AppendLocalKey appends the canonical encoding of one instance's local
// configuration to dst — the single-instance analogue of AppendKey, used by
// compositional minimization to intern local configuration graphs.
func (m *Model) AppendLocalKey(dst []byte, c LocalConfig) []byte {
	return m.AppendKey(dst, State{c})
}

// LocalMovesOf returns the local moves of instance i in configuration c,
// without requiring a full global state. It is the per-component successor
// function compositional minimization explores.
func (m *Model) LocalMovesOf(i int, c LocalConfig) ([]LocalMove, error) {
	s := make(State, len(m.insts))
	s[i] = c
	return m.LocalMoves(s, i)
}

// DescribeLocal renders one instance's local configuration (the
// single-instance analogue of Describe).
func (m *Model) DescribeLocal(i int, c LocalConfig) string {
	if m.quot != nil {
		return m.insts[i].name + "=" + m.quot[i].Descs[c.Node]
	}
	info := m.nodes[c.Node]
	var sb strings.Builder
	sb.WriteString(m.insts[i].name)
	sb.WriteByte('=')
	sb.WriteString(info.behavior.Name)
	sb.WriteByte('(')
	for j, v := range c.Args {
		if j > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	if off := c.Node - info.behavior.Body.ID(); off != 0 {
		sb.WriteString("+" + strconv.Itoa(off))
	}
	return sb.String()
}
