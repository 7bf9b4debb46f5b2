package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
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

// TestRunUsageErrors checks that malformed command lines fail. Where a
// case names an error, it must be that one: -relation is parsed before
// any model loads, so an unknown relation is reported even where the
// model files do not exist.
func TestRunUsageErrors(t *testing.T) {
	spec := specPath(t, "rpc_simplified.aem")
	for _, c := range []struct {
		args []string
		want string
	}{
		{args: []string{}},
		{args: []string{"frobnicate"}},
		{args: []string{"check", "model.aem"}},                      // missing -high/-low
		{args: []string{"check", "-high", "DPM", "model.aem"}},      // missing -low
		{args: []string{"solve", "model.aem"}},                      // missing -measures
		{args: []string{"sim", "model.aem"}},                        // missing -measures
		{args: []string{"equiv", "-relation", "weak", "only-one"}},  // needs two files
		{args: []string{"lts", "a.aem", "b.aem"}},                   // too many positionals
		{args: []string{"lts", "definitely-not-existing-file.aem"}}, // unreadable
		{[]string{"minimize", "-relation", "nope", spec}, `unknown relation "nope"`},
		{[]string{"equiv", "-relation", "nope", spec, spec}, `unknown relation "nope"`},
		{[]string{"minimize", "-relation", "markovian", spec}, `unknown relation "markovian"`},
		{[]string{"equiv", "-relation", "markovian", spec, spec}, `unknown relation "markovian"`},
		{[]string{"equiv", "-relation", "nope", "a.x", "b.x"}, `unknown relation "nope"`}, // before any load
		// A name that matches nothing would restrict or observe nothing.
		{[]string{"check", "-high-labels", "DPM.send_shutdwn#S.receive_shutdown", "-low", "C", spec},
			`-high-labels entry "DPM.send_shutdwn#S.receive_shutdown" is not a label of the state space`},
		{[]string{"mc", "-hide-except", "Cx", "-formula", "TRUE", spec},
			`-hide-except "Cx" is not an instance of the model (instances: S, RCS, RSC, C, DPM)`},
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q): got %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// TestRunNamesEverySubcommand pins the messages of a missing and of an
// unknown subcommand: both list all seven subcommands run dispatches.
func TestRunNamesEverySubcommand(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "usage: dpmassess <lts|check|solve|sim|equiv|minimize|mc> [flags] model.aem"},
		{[]string{"frobnicate"}, `unknown subcommand "frobnicate" (want one of lts|check|solve|sim|equiv|minimize|mc)`},
	} {
		if err := run(c.args); err == nil || err.Error() != c.want {
			t.Errorf("run(%q): got %v, want %q", c.args, err, c.want)
		}
	}
}

// TestFlagErrorsPrintedOnce runs the CLI as main does, with standard
// error captured: a flag error is printed once, by its flag set, with the
// usage, and exits 2; -h prints the usage alone and exits 0; any other
// error is printed by main and exits 1.
func TestFlagErrorsPrintedOnce(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string // printed exactly once
	}{
		{[]string{"sim", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"equiv", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"sim", "-h"}, 0, "Usage of sim:"},
		{[]string{"frobnicate"}, 1, `dpmassess: unknown subcommand "frobnicate"`},
	} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = w
		out := make(chan []byte)
		go func() {
			b, _ := io.ReadAll(r) // the pipe only fails once closed
			out <- b
		}()
		code := exitCode(run(c.args))
		os.Stderr = stderr
		w.Close()
		text := string(<-out)
		r.Close()
		if code != c.code {
			t.Errorf("%q: exit status %d, want %d", c.args, code, c.code)
		}
		if n := strings.Count(text, c.want); n != 1 {
			t.Errorf("%q: %q printed %d times, want once:\n%s", c.args, c.want, n, text)
		}
		if strings.Contains(text, "help requested") {
			t.Errorf("%q: printed the help-requested error:\n%s", c.args, text)
		}
	}
}

// TestNoCLIHasCompose checks that no command line takes a -compose flag:
// every Markovian analysis folds, lts prints the unfolded state space and
// sim simulates the unfolded model, so a composition strategy would
// change nothing, and flag parsing rejects it.
func TestNoCLIHasCompose(t *testing.T) {
	model := specPath(t, "rpc_revised_markov.aem")
	measures := specPath(t, "rpc.msr")
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"dpmassess lts", func() error { return run([]string{"lts", "-compose", "minimize", model}) }},
		{"dpmassess solve", func() error { return run([]string{"solve", "-measures", measures, "-compose", "minimize", model}) }},
		{"dpmassess sim", func() error { return run([]string{"sim", "-measures", measures, "-compose", "minimize", model}) }},
		{"rpcstudy", func() error {
			return experiments.RunStudy(experiments.RPCStudy, []string{"-compose", "minimize"}, io.Discard)
		}},
		{"streamingstudy", func() error {
			return experiments.RunStudy(experiments.StreamingStudy, []string{"-compose", "full"}, io.Discard)
		}},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -compose") {
			t.Errorf("%s -compose: got %v, want an undefined-flag error", c.name, err)
		}
	}
}

// TestSolveReportsFoldedSpace pins what solve prints: the states line of
// the folded space, and the measure values the unfolded solve printed
// before folding became the only Markovian path (they agreed byte for
// byte at %.8g).
func TestSolveReportsFoldedSpace(t *testing.T) {
	for _, c := range []struct{ model, measures, want string }{
		{"rpc_revised_markov.aem", "rpc.msr", `states: 49 (tangible 48, vanishing 1)
throughput               0.073222587
waiting_time             0.25344851
energy                   1.0243349
`},
		{"streaming_markov.aem", "streaming.msr", `states: 2310 (tangible 2310, vanishing 0)
nic_energy               0.29420078
frames_delivered         0.013127035
frames_missed            0.001798338
frames_sent              0.014925373
frames_lost              0.0015009794
`},
	} {
		if got := runOutput(t, "solve", "-measures", specPath(t, c.measures), specPath(t, c.model)); got != c.want {
			t.Errorf("solve %s printed\n%s\nwant\n%s", c.model, got, c.want)
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

// TestRunCheckRejectsUnknownInstance checks that check refuses a -high or
// -low name that is not an instance of the model, naming the bad value
// and the instances, instead of checking an empty high or low set.
func TestRunCheckRejectsUnknownInstance(t *testing.T) {
	model := specPath(t, "rpc_simplified.aem")
	for _, c := range []struct {
		args []string
		bad  string
	}{
		{[]string{"-high", "NOPE", "-low", "ALSO_NOPE"}, `-high "NOPE"`},
		{[]string{"-high", "DPM", "-low", "ALSO_NOPE"}, `-low "ALSO_NOPE"`},
		{[]string{"-high-labels", "DPM.send_shutdown#S.receive_shutdown", "-low", "c"}, `-low "c"`},
	} {
		err := run(append(append([]string{"check"}, c.args...), model))
		if err == nil {
			t.Errorf("check %v: accepted", c.args)
			continue
		}
		for _, want := range []string{c.bad, "instances: S, RCS, RSC, C, DPM"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("check %v: error %q does not mention %s", c.args, err, want)
			}
		}
	}
	if out := runOutput(t, "check", "-high", "DPM", "-low", "C", model); !strings.Contains(out, "verdict:") {
		t.Errorf("check with valid instances printed no verdict:\n%s", out)
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
	if err := run([]string{"minimize", "-relation", "weak", a}); err != nil {
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

// TestSolveResumeAfterEdit is the regression for stale resumes: solve
// with -checkpoint, edit the model or the measures, and resume from the
// same file. The edits are an exponential rate that is not a rate slot
// and a measure's reward value; each resumed run must print what a fresh
// solve of the edited input prints, not the stored values of the
// original. Resuming the unedited input answers from the store.
func TestSolveResumeAfterEdit(t *testing.T) {
	model := specPath(t, "rpc_revised_markov.aem")
	measures := specPath(t, "rpc.msr")
	dir := t.TempDir()
	edit := func(src, name, old, new string) string {
		t.Helper()
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), old) {
			t.Fatalf("%s holds no %q", src, old)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rateEdit := edit(model, "rate.aem", "<prepare_result_packet, exp(5)>", "<prepare_result_packet, exp(50)>")
	rewardEdit := edit(measures, "reward.msr", "STATE_REWARD(3)", "STATE_REWARD(30)")

	for _, c := range []struct{ name, model, measures string }{
		{"rate edit", rateEdit, measures},
		{"reward edit", model, rewardEdit},
	} {
		t.Run(c.name, func(t *testing.T) {
			ckpt := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".ckpt")
			original := runOutput(t, "solve", "-measures", measures, "-checkpoint", ckpt, model)
			fresh := runOutput(t, "solve", "-measures", c.measures, c.model)
			if fresh == original {
				t.Fatal("fixture: the edit does not change the solve")
			}
			if got := runOutput(t, "solve", "-measures", c.measures, "-checkpoint", ckpt, "-resume", c.model); got != fresh {
				t.Errorf("resumed solve printed\n%s\nwant the fresh solve\n%s", got, fresh)
			}
			hit := runOutput(t, "solve", "-measures", measures, "-checkpoint", ckpt, "-resume", "-stats", model)
			if !strings.HasPrefix(hit, original) || !strings.Contains(hit, "the report came from the store") {
				t.Errorf("resuming the unedited solve printed\n%s\nwant the stored\n%s", hit, original)
			}
		})
	}
}
