// Package hml implements the fragment of Hennessy–Milner logic used for
// diagnostic (distinguishing) formulas: truth, negation, finite
// conjunction, and strong/weak diamond modalities. Formulas are rendered
// in the textual style of the TwoTowers equivalence checker
// (EXISTS_WEAK_TRANS(LABEL(a); REACHED_STATE_SAT(...))) and can be
// model-checked against explicit labelled transition systems.
package hml

import (
	"sort"
	"strings"

	"repro/internal/lts"
)

// Formula is a modal-logic formula. Concrete types: True, Not, And,
// Diamond, DiamondWeak.
type Formula interface {
	isFormula()
}

// True holds in every state.
type True struct{}

// Not negates a formula.
type Not struct {
	// F is the negated formula.
	F Formula
}

// And is a finite conjunction; an empty conjunction is equivalent to True.
type And struct {
	// Fs are the conjuncts.
	Fs []Formula
}

// Diamond is the strong modality <Label> F: some Label-transition leads to
// a state satisfying F.
type Diamond struct {
	// Label is the required transition label.
	Label string
	// F must hold in the reached state.
	F Formula
}

// DiamondWeak is the weak modality <<Label>> F: some tau*·Label·tau*
// sequence (tau* alone when Label is tau) leads to a state satisfying F.
type DiamondWeak struct {
	// Label is the required visible label, or lts.TauName.
	Label string
	// F must hold in the reached state.
	F Formula
}

func (True) isFormula()        {}
func (Not) isFormula()         {}
func (And) isFormula()         {}
func (Diamond) isFormula()     {}
func (DiamondWeak) isFormula() {}

// Format renders the formula in TwoTowers diagnostic syntax.
func Format(f Formula) string {
	var sb strings.Builder
	format(&sb, f)
	return sb.String()
}

func format(sb *strings.Builder, f Formula) {
	switch x := f.(type) {
	case True:
		sb.WriteString("TRUE")
	case Not:
		sb.WriteString("NOT(")
		format(sb, x.F)
		sb.WriteString(")")
	case And:
		switch len(x.Fs) {
		case 0:
			sb.WriteString("TRUE")
		case 1:
			format(sb, x.Fs[0])
		default:
			sb.WriteString("AND(")
			for i, g := range x.Fs {
				if i > 0 {
					sb.WriteString("; ")
				}
				format(sb, g)
			}
			sb.WriteString(")")
		}
	case Diamond:
		sb.WriteString("EXISTS_TRANS(LABEL(")
		sb.WriteString(x.Label)
		sb.WriteString("); REACHED_STATE_SAT(")
		format(sb, x.F)
		sb.WriteString("))")
	case DiamondWeak:
		sb.WriteString("EXISTS_WEAK_TRANS(LABEL(")
		sb.WriteString(x.Label)
		sb.WriteString("); REACHED_STATE_SAT(")
		format(sb, x.F)
		sb.WriteString("))")
	default:
		sb.WriteString("<?>")
	}
}

// Checker evaluates formulas on an LTS, caching tau-closures.
type Checker struct {
	l       *lts.LTS
	tauSucc [][]int32 // reflexive-transitive tau closure per state
}

// NewChecker prepares a checker for the given LTS.
func NewChecker(l *lts.LTS) *Checker {
	return &Checker{l: l}
}

// closure returns the reflexive-transitive tau closure of s, computed
// lazily and cached.
func (c *Checker) closure(s int) []int32 {
	if c.tauSucc == nil {
		c.tauSucc = make([][]int32, c.l.NumStates)
	}
	if c.tauSucc[s] != nil {
		return c.tauSucc[s]
	}
	seen := map[int32]bool{int32(s): true}
	stack := []int32{int32(s)}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sp := c.l.Out(int(u))
		for k := 0; k < sp.Len(); k++ {
			if sp.Label[k] == lts.TauIndex && !seen[sp.Dst[k]] {
				seen[sp.Dst[k]] = true
				stack = append(stack, sp.Dst[k])
			}
		}
	}
	out := make([]int32, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	c.tauSucc[s] = out
	return out
}

// Sat reports whether state s satisfies formula f.
func (c *Checker) Sat(s int, f Formula) bool {
	switch x := f.(type) {
	case True:
		return true
	case Not:
		return !c.Sat(s, x.F)
	case And:
		for _, g := range x.Fs {
			if !c.Sat(s, g) {
				return false
			}
		}
		return true
	case Diamond:
		li, ok := c.l.LookupLabel(x.Label)
		if !ok {
			return false
		}
		sp := c.l.Out(s)
		for k := 0; k < sp.Len(); k++ {
			if int(sp.Label[k]) == li && c.Sat(int(sp.Dst[k]), x.F) {
				return true
			}
		}
		return false
	case DiamondWeak:
		if x.Label == lts.TauName {
			for _, u := range c.closure(s) {
				if c.Sat(int(u), x.F) {
					return true
				}
			}
			return false
		}
		li, ok := c.l.LookupLabel(x.Label)
		if !ok {
			return false
		}
		for _, u := range c.closure(s) {
			sp := c.l.Out(int(u))
			for k := 0; k < sp.Len(); k++ {
				if int(sp.Label[k]) != li {
					continue
				}
				for _, v := range c.closure(int(sp.Dst[k])) {
					if c.Sat(int(v), x.F) {
						return true
					}
				}
			}
		}
		return false
	default:
		return false
	}
}
