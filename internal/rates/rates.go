// Package rates defines the timing annotations of actions in a stochastic
// architectural description and the rules for combining them when two
// attached interactions synchronize.
//
// An action is one of:
//
//   - Untimed:   no timing information (functional models only);
//   - Exp:       exponentially distributed duration with positive rate λ;
//   - Immediate: zero duration, with a priority level and a weight used to
//     resolve probabilistic choice among simultaneously enabled
//     immediate actions;
//   - Passive:   reactive; the duration is decided by the active partner
//     of the synchronization. A weight resolves the choice among
//     alternative passive actions with the same name.
//
// The synchronization discipline follows the stochastic process-algebra
// rule the paper relies on: at most one participant of a synchronization
// may be active (Exp or Immediate); the result takes the active timing.
package rates

import (
	"fmt"
	"strconv"
)

// Kind classifies the timing of an action.
type Kind int

// Rate kinds.
const (
	Untimed Kind = iota + 1
	Exp
	Immediate
	Passive
)

// String returns the source-level name of the kind.
func (k Kind) String() string {
	switch k {
	case Untimed:
		return "untimed"
	case Exp:
		return "exp"
	case Immediate:
		return "inf"
	case Passive:
		return "passive"
	default:
		return "unknown"
	}
}

// Rate is the timing annotation of an action.
type Rate struct {
	// Kind selects which of the remaining fields are meaningful.
	Kind Kind
	// Lambda is the parameter of an exponential duration (Kind == Exp).
	Lambda float64
	// Priority orders simultaneously enabled immediate actions
	// (Kind == Immediate); higher wins.
	Priority int
	// Weight resolves probabilistic choice among equally prioritized
	// immediate actions, or among alternative passive actions
	// (Kind == Immediate or Passive).
	Weight float64
	// Slot binds an exponential rate to a symbolic parameter: slot k > 0
	// means Lambda is the built-in value of rate parameter k, and a
	// downstream analysis may solve at a different positive value without
	// re-elaborating the model (a rate point of ctmc.SolveBatchLanes).
	// Slot 0 — the zero value — marks an ordinary constant rate. Slots are
	// only meaningful on Kind == Exp: immediate and passive annotations
	// shape the *structure* of the extracted chain (vanishing-state
	// classification, branching probabilities), so no rate point can
	// change them.
	Slot int
}

// Convenience constructors.

// UntimedRate returns the annotation of an action without timing.
func UntimedRate() Rate { return Rate{Kind: Untimed} }

// ExpRate returns an exponential annotation with rate lambda.
func ExpRate(lambda float64) Rate { return Rate{Kind: Exp, Lambda: lambda} }

// ExpSlot returns an exponential annotation bound to rate slot k (k >= 1)
// with anchor value lambda. The anchor is a real, positive rate — the
// model elaborates and analyses exactly like ExpRate(lambda) — but the
// slot index travels with the annotation through synchronization and into
// the generated transition system, where ctmc.Build records it per edge so
// the extracted chain can be solved at other slot values in O(edges).
func ExpSlot(slot int, lambda float64) Rate {
	return Rate{Kind: Exp, Lambda: lambda, Slot: slot}
}

// Inf returns an immediate annotation with the given priority and weight.
func Inf(priority int, weight float64) Rate {
	return Rate{Kind: Immediate, Priority: priority, Weight: weight}
}

// PassiveRate returns a passive annotation with weight 1.
func PassiveRate() Rate { return Rate{Kind: Passive, Weight: 1} }

// PassiveWeight returns a passive annotation with the given weight.
func PassiveWeight(w float64) Rate { return Rate{Kind: Passive, Weight: w} }

// IsActive reports whether the rate decides its own timing
// (exponential or immediate).
func (r Rate) IsActive() bool { return r.Kind == Exp || r.Kind == Immediate }

// Validate checks internal consistency of the annotation.
func (r Rate) Validate() error {
	if r.Slot < 0 {
		return fmt.Errorf("rates: rate slot must be non-negative, got %d", r.Slot)
	}
	if r.Slot > 0 && r.Kind != Exp {
		return fmt.Errorf("rates: rate slot %d on a %v annotation (slots are exponential-only)", r.Slot, r.Kind)
	}
	switch r.Kind {
	case Untimed:
		return nil
	case Exp:
		if !(r.Lambda > 0) {
			return fmt.Errorf("rates: exponential rate must be positive, got %v", r.Lambda)
		}
		return nil
	case Immediate:
		if r.Priority < 0 {
			return fmt.Errorf("rates: immediate priority must be non-negative, got %d", r.Priority)
		}
		if !(r.Weight > 0) {
			return fmt.Errorf("rates: immediate weight must be positive, got %v", r.Weight)
		}
		return nil
	case Passive:
		if !(r.Weight > 0) {
			return fmt.Errorf("rates: passive weight must be positive, got %v", r.Weight)
		}
		return nil
	default:
		return fmt.Errorf("rates: invalid kind %d", int(r.Kind))
	}
}

// String renders the annotation in .aem syntax.
func (r Rate) String() string {
	switch r.Kind {
	case Untimed:
		return "_"
	case Exp:
		if r.Slot > 0 {
			return "exp@" + strconv.Itoa(r.Slot) + "(" + strconv.FormatFloat(r.Lambda, 'g', -1, 64) + ")"
		}
		return "exp(" + strconv.FormatFloat(r.Lambda, 'g', -1, 64) + ")"
	case Immediate:
		return "inf(" + strconv.Itoa(r.Priority) + ", " +
			strconv.FormatFloat(r.Weight, 'g', -1, 64) + ")"
	case Passive:
		if r.Weight == 1 {
			return "passive"
		}
		return "passive(" + strconv.FormatFloat(r.Weight, 'g', -1, 64) + ")"
	default:
		return "<invalid>"
	}
}

// IncompatibleError reports a synchronization between two annotations
// that the timing discipline forbids (e.g. two active participants).
type IncompatibleError struct {
	// A and B are the two annotations that could not be combined.
	A, B Rate
}

// Error implements error.
func (e *IncompatibleError) Error() string {
	return fmt.Sprintf("rates: cannot synchronize %v with %v: at most one participant may be active", e.A, e.B)
}

// Combine computes the annotation of a synchronized transition from the
// annotations of its two participants. Rules:
//
//   - active × passive  → the active annotation, weight multiplied by the
//     passive weight (normalized per choice at firing time);
//   - passive × passive → passive (functional composition; a downstream
//     Markovian analysis rejects reachable passive transitions);
//   - untimed × untimed, untimed × passive → untimed;
//   - active × active, untimed × active → error.
//
// The result is a copy of the active annotation, so a rate slot on the
// active participant is preserved; synchronization never rescales an
// exponential Lambda, so the slot's value binding stays exact.
func Combine(a, b Rate) (Rate, error) {
	if a.IsActive() && b.IsActive() {
		return Rate{}, &IncompatibleError{A: a, B: b}
	}
	if a.IsActive() || b.IsActive() {
		act, pas := a, b
		if b.IsActive() {
			act, pas = b, a
		}
		if pas.Kind == Untimed {
			return Rate{}, &IncompatibleError{A: a, B: b}
		}
		out := act
		if out.Kind == Immediate {
			out.Weight *= pas.Weight
		}
		return out, nil
	}
	// Neither active.
	if a.Kind == Untimed || b.Kind == Untimed {
		return UntimedRate(), nil
	}
	return Rate{Kind: Passive, Weight: a.Weight * b.Weight}, nil
}
