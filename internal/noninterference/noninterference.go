// Package noninterference implements the transparency check of the
// methodology's first phase, following the Goguen–Meseguer /
// Focardi–Gorrieri view the paper adopts: the high part of a system (the
// dynamic power manager's commands) does not interfere with the behaviour
// observed by the low part (the client) iff the system with high actions
// *hidden* is weakly bisimilar to the system with high actions *prevented
// from occurring*, both observed through the low actions only.
//
// Concretely, given an explicit LTS:
//
//   - variant A hides every label that is not low (the DPM is present but
//     unobservable);
//   - variant B first removes every high transition (the DPM is disabled),
//     then hides every label that is not low.
//
// Both variants are composable passes over the CSR form of the one
// generated state space — hiding rewrites only the label column (sharing
// the structural arrays) and restriction is a reachability sweep — and
// they share its label symbol table, so the equivalence check compares
// label indices directly without matching names.
//
// The two variants are compared up to weak bisimulation. When the check
// fails, the returned distinguishing modal-logic formula — over low labels
// and weak modalities — holds in variant A and fails in variant B; it is
// the diagnostic the designer uses to repair the model (paper Sect. 3.1).
// The equivalence checker derives the formula on reduced systems, so Check
// model-checks it on both full variants before reporting it.
package noninterference

import (
	"fmt"

	"repro/internal/bisim"
	"repro/internal/elab"
	"repro/internal/hml"
	"repro/internal/lts"
)

// Spec identifies the high (forbidden) and low (observable) actions.
type Spec struct {
	// High selects the labels of the high commands (e.g. the DPM's
	// shutdown and wakeup synchronizations).
	High func(label string) bool
	// Low selects the labels that remain observable (e.g. every label
	// involving the client instance). When nil, every non-high label is
	// observable — the classical SNNI setting.
	Low func(label string) bool
}

// Result reports the outcome of a transparency check.
type Result struct {
	// Transparent is true when the two variants are weakly bisimilar.
	Transparent bool
	// Formula is a distinguishing formula when Transparent is false: it
	// holds in the hidden variant and fails in the restricted one.
	Formula hml.Formula
	// FormulaText is Formula rendered in TwoTowers diagnostic syntax.
	FormulaText string
	// HiddenStates and RestrictedStates are the sizes of the two compared
	// state spaces, for reporting.
	HiddenStates, RestrictedStates int
}

// Check runs the noninterference analysis on an explicit LTS.
func Check(l *lts.LTS, spec Spec) (*Result, error) {
	if spec.High == nil {
		return nil, fmt.Errorf("noninterference: Spec.High is required")
	}
	low := spec.Low
	if low == nil {
		high := spec.High
		low = func(label string) bool { return !high(label) }
	}
	notLow := func(label string) bool { return !low(label) }

	hidden := lts.Hide(l, notLow)
	restricted := lts.Hide(lts.Restrict(l, spec.High), notLow)
	ok, f := bisim.Equivalent(hidden, restricted, bisim.Weak)
	res := &Result{
		Transparent:      ok,
		HiddenStates:     hidden.NumStates,
		RestrictedStates: restricted.NumStates,
	}
	if !ok {
		if err := certify(hidden, restricted, f); err != nil {
			return nil, err
		}
		res.Formula = f
		res.FormulaText = hml.Format(f)
	}
	return res, nil
}

// certify checks that f holds in the initial state of the hidden variant
// and fails in that of the restricted one.
func certify(hidden, restricted *lts.LTS, f hml.Formula) error {
	if !hml.NewChecker(hidden).Sat(hidden.Initial, f) {
		return fmt.Errorf("noninterference: distinguishing formula fails in the hidden variant: %s", hml.Format(f))
	}
	if hml.NewChecker(restricted).Sat(restricted.Initial, f) {
		return fmt.Errorf("noninterference: distinguishing formula holds in the restricted variant: %s", hml.Format(f))
	}
	return nil
}

// CheckModel generates the state space of an elaborated model and runs the
// transparency check with the named instance's synchronizations as high
// and the low instance's as observable.
func CheckModel(m *elab.Model, highInstance, lowInstance string, opts lts.GenerateOptions) (*Result, error) {
	for _, inst := range []string{highInstance, lowInstance} {
		if _, ok := m.InstanceIndex(inst); !ok {
			return nil, fmt.Errorf("noninterference: unknown instance %q", inst)
		}
	}
	l, err := lts.Generate(m, opts)
	if err != nil {
		return nil, fmt.Errorf("noninterference: %w", err)
	}
	return Check(l, Spec{
		High: lts.LabelMatcherByInstance(highInstance),
		Low:  lts.LabelMatcherByInstance(lowInstance),
	})
}
