package elab

import (
	"fmt"

	"repro/internal/aemilia"
	"repro/internal/rates"
)

// This file holds the term-interpreting one-step relation over global
// states: the differential oracle that CompareCompiled and
// FuzzCompiledSuccessors check Compiled.Successors against, and the
// State-level API the package's unit tests are written in. Production code
// runs only the compiled form.

// Transition is a global move of the composition.
type Transition struct {
	// Label is the observable label ("A.a" or "A.o#B.i").
	Label string
	// Rate is the combined timing annotation.
	Rate rates.Rate
	// Next is the global state after the transition.
	Next State
	// ActiveInst is the index of the instance that owns the timing of the
	// transition (the active participant; the moving instance for internal
	// actions; the output side when neither participant is active).
	ActiveInst int
	// ActiveAction is the action name of the active participant.
	ActiveAction string
}

// Initial returns the initial global state.
func (m *Model) Initial() State {
	s := make(State, len(m.insts))
	for i := range s {
		s[i] = m.InitialLocal(i)
	}
	return s
}

// AppendKey appends the canonical encoding of a global state to dst: the
// local encodings of its configurations back to back.
func (m *Model) AppendKey(dst []byte, s State) []byte {
	for _, c := range s {
		dst = m.AppendLocalKey(dst, c)
	}
	return dst
}

// Key returns the canonical encoding of a global state as a map key.
func (m *Model) Key(s State) string {
	return string(m.AppendKey(nil, s))
}

// Equal reports whether two global states are identical.
func Equal(a, b State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || len(a[i].Args) != len(b[i].Args) {
			return false
		}
		for j := range a[i].Args {
			if !a[i].Args[j].Equal(b[i].Args[j]) {
				return false
			}
		}
	}
	return true
}

// LocallyEnabled reports whether the named action of the named instance is
// enabled in its local configuration in s, regardless of whether the
// topology lets it fire. This is the predicate behind reward monitors.
func (m *Model) LocallyEnabled(s State, instName, action string) (bool, error) {
	i, ok := m.InstanceIndex(instName)
	if !ok {
		return false, fmt.Errorf("elab: unknown instance %q", instName)
	}
	moves, err := m.LocalMovesOf(i, s[i])
	if err != nil {
		return false, err
	}
	for _, mv := range moves {
		if mv.Act.Name == action {
			return true, nil
		}
	}
	return false, nil
}

// Successors returns the global transitions enabled in s.
func (m *Model) Successors(s State) ([]Transition, error) {
	if len(s) != len(m.insts) {
		return nil, fmt.Errorf("elab: state has %d configurations for %d instances", len(s), len(m.insts))
	}
	local := make([][]LocalMove, len(m.insts))
	for i := range m.insts {
		mv, err := m.LocalMovesOf(i, s[i])
		if err != nil {
			return nil, err
		}
		local[i] = mv
	}

	var out []Transition
	for i := range m.insts {
		for _, mv := range local[i] {
			r, ok := m.insts[i].roles[mv.Act.Name]
			if !ok {
				// Internal action: interleave.
				next := cloneState(s)
				next[i] = mv.Next
				out = append(out, Transition{
					Label:        m.insts[i].internalLabel(mv.Act.Name),
					Rate:         mv.Act.Rate,
					Next:         next,
					ActiveInst:   i,
					ActiveAction: mv.Act.Name,
				})
				continue
			}
			switch r.kind {
			case roleBlocked, roleAttachedIn:
				// Blocked, or handled from the output side.
				continue
			case roleAttachedOut:
				if r.mult == aemilia.And && len(r.partners) > 1 {
					ts, err := m.broadcast(s, i, mv, r, local)
					if err != nil {
						return nil, err
					}
					out = append(out, ts...)
					continue
				}
				// UNI and OR: synchronize with one partner at a time.
				for pi, pr := range r.partners {
					for _, mv2 := range local[pr.inst] {
						if mv2.Act.Name != pr.action {
							continue
						}
						combined, err := rates.Combine(mv.Act.Rate, mv2.Act.Rate)
						if err != nil {
							return nil, fmt.Errorf("elab: %s.%s # %s.%s: %w",
								m.insts[i].name, mv.Act.Name, m.insts[pr.inst].name, mv2.Act.Name, err)
						}
						next := cloneState(s)
						next[i] = mv.Next
						next[pr.inst] = mv2.Next
						active, activeAction := i, mv.Act.Name
						if mv2.Act.Rate.IsActive() {
							active, activeAction = pr.inst, mv2.Act.Name
						}
						out = append(out, Transition{
							Label:        r.partnerLabels[pi],
							Rate:         combined,
							Next:         next,
							ActiveInst:   active,
							ActiveAction: activeAction,
						})
					}
				}
			case roleInternal:
				// Unreachable: internal actions have no role entry.
			}
		}
	}
	return out, nil
}

// broadcast builds the AND-synchronization transitions of an output move:
// every attached partner must offer the action; one transition is
// generated per combination of partner moves (usually one each).
func (m *Model) broadcast(s State, i int, mv LocalMove, r role, local [][]LocalMove) ([]Transition, error) {
	partners := r.partners
	// Collect each partner's candidate moves; all must be non-empty.
	cands := make([][]LocalMove, len(partners))
	for pi, pr := range partners {
		for _, mv2 := range local[pr.inst] {
			if mv2.Act.Name == pr.action {
				cands[pi] = append(cands[pi], mv2)
			}
		}
		if len(cands[pi]) == 0 {
			return nil, nil // some partner refuses: broadcast disabled
		}
	}
	var out []Transition
	idx := make([]int, len(partners))
	for {
		combined := mv.Act.Rate
		active, activeAction := i, mv.Act.Name
		next := cloneState(s)
		next[i] = mv.Next
		var err error
		for pi, pr := range partners {
			mv2 := cands[pi][idx[pi]]
			combined, err = rates.Combine(combined, mv2.Act.Rate)
			if err != nil {
				return nil, fmt.Errorf("elab: broadcast %s.%s # %s.%s: %w",
					m.insts[i].name, mv.Act.Name, m.insts[pr.inst].name, mv2.Act.Name, err)
			}
			if mv2.Act.Rate.IsActive() {
				active, activeAction = pr.inst, mv2.Act.Name
			}
			next[pr.inst] = mv2.Next
		}
		out = append(out, Transition{
			Label:        r.bcastLabel,
			Rate:         combined,
			Next:         next,
			ActiveInst:   active,
			ActiveAction: activeAction,
		})
		// Advance the combination counter.
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(cands[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return out, nil
		}
	}
}

func cloneState(s State) State {
	next := make(State, len(s))
	copy(next, s)
	return next
}
