package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specPath resolves a file in the repository's specs directory.
func specPath(t *testing.T, name string) string {
	t.Helper()
	p := filepath.Join("..", "..", "specs", name)
	if _, err := os.Stat(p); err != nil {
		t.Skipf("spec %s not available: %v", name, err)
	}
	return p
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"check", "model.aem"},                 // missing -high/-low
		{"check", "-high", "DPM", "model.aem"}, // missing -low
		{"solve", "model.aem"},                 // missing -measures
		{"sim", "model.aem"},                   // missing -measures
		{"equiv", "-relation", "weak", "only-one"},   // needs two files
		{"minimize", "-relation", "nope", "x.aem"},   // unknown relation
		{"lts", "a.aem", "b.aem"},                    // too many positionals
		{"lts", "definitely-not-existing-file.aem"},  // unreadable
		{"equiv", "-relation", "nope", "a.x", "b.x"}, // unknown relation (after load fails first)
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestRunSolveRejectsUnknownSweep checks that solve names the bad -sweep
// value, including "jacobi", a scheme the solver no longer has.
func TestRunSolveRejectsUnknownSweep(t *testing.T) {
	model := specPath(t, "rpc_revised_markov.aem")
	measures := specPath(t, "rpc.msr")
	for _, sweep := range []string{"jacobi", "bogus"} {
		err := run([]string{"solve", "-measures", measures, "-sweep", sweep, model})
		if err == nil || !strings.Contains(err.Error(), `unknown sweep mode "`+sweep+`"`) {
			t.Errorf("-sweep %s: got %v, want an unknown-sweep-mode error", sweep, err)
		}
	}
}

func TestRunLTSAndExports(t *testing.T) {
	model := specPath(t, "rpc_simplified.aem")
	dir := t.TempDir()
	dot := filepath.Join(dir, "out.dot")
	aut := filepath.Join(dir, "out.aut")
	if err := run([]string{"lts", "-dot", dot, "-aut", aut, model}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{dot, aut} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) == 0 {
			t.Errorf("export %s missing or empty: %v", p, err)
		}
	}
	autText, _ := os.ReadFile(aut)
	if !strings.HasPrefix(string(autText), "des (") {
		t.Errorf("aut export malformed: %q", string(autText)[:20])
	}
}

func TestRunCheckSolveSim(t *testing.T) {
	model := specPath(t, "rpc_revised_markov.aem")
	measures := specPath(t, "rpc.msr")
	if err := run([]string{"check",
		"-high-labels", "DPM.send_shutdown#S.receive_shutdown",
		"-low", "C", model}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"solve", "-measures", measures, model}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"sim", "-measures", measures,
		"-runlength", "200", "-reps", "2", model}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEquivAndMinimize(t *testing.T) {
	a := specPath(t, "rpc_simplified.aem")
	b := specPath(t, "rpc_revised_functional.aem")
	if err := run([]string{"equiv", "-relation", "weak", a, b}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"equiv", "-relation", "strong", a, a}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"equiv", "-relation", "markovian", a, a}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"minimize", "-relation", "weak", a}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"minimize", "-relation", "markovian", a}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dot := filepath.Join(dir, "min.dot")
	if err := run([]string{"minimize", "-relation", "strong", "-dot", dot, a}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dot); err != nil {
		t.Errorf("minimized dot not written: %v", err)
	}
}

func TestRunMC(t *testing.T) {
	simplified := specPath(t, "rpc_simplified.aem")
	paperFormula := "EXISTS_WEAK_TRANS(LABEL(C.send_rpc_packet#RCS.get_packet); " +
		"REACHED_STATE_SAT(NOT(EXISTS_WEAK_TRANS(LABEL(RSC.deliver_packet#C.receive_result_packet); " +
		"REACHED_STATE_SAT(TRUE)))))"
	// The paper's diagnostic formula holds in the (hidden) simplified
	// system: the flaw is present.
	if err := run([]string{"mc", "-hide-except", "C",
		"-formula", paperFormula, simplified}); err != nil {
		t.Fatal(err)
	}
	// A formula over a non-existent label is trivially unsatisfied.
	if err := run([]string{"mc",
		"-formula", "EXISTS_TRANS(LABEL(no.such#label.here); REACHED_STATE_SAT(TRUE))",
		simplified}); err != nil {
		t.Fatal(err)
	}
	// Errors: missing formula, bad formula.
	if err := run([]string{"mc", simplified}); err == nil {
		t.Error("missing -formula should fail")
	}
	if err := run([]string{"mc", "-formula", "NOPE(", simplified}); err == nil {
		t.Error("malformed formula should fail")
	}
}
