package main

import (
	"io"
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

// runOutput runs the CLI and returns what it printed to standard output.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // the pipe only fails once closed
		out <- b
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	text := string(<-out)
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return text
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

// TestRunSolveRejectsUnknownSweep checks that solve has no -sweep flag:
// Gauss-Seidel is the only scheme, so every value — the names of the
// schemes the solver no longer has included — is rejected by flag parsing.
func TestRunSolveRejectsUnknownSweep(t *testing.T) {
	model := specPath(t, "rpc_revised_markov.aem")
	measures := specPath(t, "rpc.msr")
	for _, sweep := range []string{"auto", "gauss-seidel", "multilevel", "jacobi"} {
		err := run([]string{"solve", "-measures", measures, "-sweep", sweep, model})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -sweep") {
			t.Errorf("-sweep %s: got %v, want an undefined-flag error", sweep, err)
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

// TestRunSimRejectsUnsupportedConfidence checks that sim refuses a
// confidence level it has no t-table for, instead of printing a 95%
// half-width labelled with the requested level.
func TestRunSimRejectsUnsupportedConfidence(t *testing.T) {
	model := specPath(t, "rpc_revised_markov.aem")
	measures := specPath(t, "rpc.msr")
	for _, level := range []string{"0.85", "1.5", "NaN"} {
		err := run([]string{"sim", "-measures", measures, "-runlength", "200", "-reps", "2",
			"-confidence", level, model})
		if err == nil || !strings.Contains(err.Error(), "ConfidenceLevel must be one of [0.8 0.9 0.95 0.99]") {
			t.Errorf("-confidence %s: got %v, want an unsupported-level error", level, err)
		}
	}
	out := runOutput(t, "sim", "-measures", measures, "-runlength", "200", "-reps", "2",
		"-confidence", "0.99", model)
	if !strings.Contains(out, "(99%)") {
		t.Errorf("-confidence 0.99 output does not label its intervals 99%%:\n%s", out)
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

// TestRunWeakPaths pins the quotient sizes of weak minimization and the
// Sect. 3.2 verdict at the paper's capacity, both decided on branching
// quotients.
func TestRunWeakPaths(t *testing.T) {
	for _, c := range []struct{ spec, quotient string }{
		{"rpc_revised_functional.aem", "quotient: 543 states, 1706 transitions"},
		{"streaming_functional.aem", "quotient: 38016 states, 154464 transitions"},
		{"rpc_simplified.aem", "quotient: 16 states, 23 transitions"},
	} {
		out := runOutput(t, "minimize", "-relation", "weak", specPath(t, c.spec))
		if !strings.Contains(out, c.quotient) {
			t.Errorf("minimize -relation weak %s:\n%s\nwant %q", c.spec, out, c.quotient)
		}
	}
	out := runOutput(t, "check", "-high", "DPM", "-low", "C", specPath(t, "streaming_functional.aem"))
	if !strings.Contains(out, "NONINTERFERENCE HOLDS") {
		t.Errorf("check streaming_functional.aem:\n%s\nwant NONINTERFERENCE HOLDS", out)
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
