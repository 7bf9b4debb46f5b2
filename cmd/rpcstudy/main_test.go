package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// run drives the rpcstudy command line and returns what it prints.
func run(args ...string) (string, error) {
	var out bytes.Buffer
	err := experiments.RunStudy(experiments.RPCStudy, args, &out)
	return out.String(), err
}

func TestRunSect3(t *testing.T) {
	if _, err := run("-experiment", "sect3"); err != nil {
		t.Fatal(err)
	}
}

func TestRunPolicies(t *testing.T) {
	if _, err := run("-experiment", "policies", "-csv"); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if _, err := run("-definitely-not-a-flag"); err == nil {
		t.Fatal("unknown flag should error")
	}
}

func TestRunUnknownExperimentErrors(t *testing.T) {
	out, err := run("-experiment", "fig4")
	if err == nil {
		t.Fatal("an experiment of the other study should error")
	}
	if want := "all, sect3, fig3markov, fig3general, fig5, policies, battery, fig7"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list %q", err, want)
	}
	if out != "" {
		t.Errorf("printed %q before failing", out)
	}
}

// TestQuickOutputBytes pins the bytes that a -quick run of all prints, as
// tables and as CSV, at one and at eight workers. The testdata files were
// recorded before the experiments catalog drove this command.
func TestQuickOutputBytes(t *testing.T) {
	for file, args := range map[string][]string{"quick_all.txt": nil, "quick_all.csv": {"-csv"}} {
		want := readFile(t, file)
		for _, workers := range []string{"1", "8"} {
			got, err := run(append([]string{"-quick", "-workers", workers}, args...)...)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("-quick %v -workers %s differs from testdata/%s:\n%s", args, workers, file, got)
			}
		}
	}
}

// TestCheckpointResume runs -quick all with -checkpoint and then resumes
// it from the result store it left: both runs print the uncheckpointed
// bytes.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	want := readFile(t, "quick_all.txt")
	for _, args := range [][]string{{"-checkpoint", dir}, {"-checkpoint", dir, "-resume"}} {
		got, err := run(append([]string{"-quick"}, args...)...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if got != want {
			t.Errorf("%v differs from testdata/quick_all.txt:\n%s", args, got)
		}
		if stores, _ := filepath.Glob(filepath.Join(dir, "*.store")); len(stores) != 1 {
			t.Fatalf("%v left %d result stores in %s, want 1", args, len(stores), dir)
		}
	}
}

// TestCheckpointCreatesDir pins how -checkpoint treats a directory that
// does not exist: it is created before any experiment runs, and the run
// prints the uncheckpointed bytes into a store there.
func TestCheckpointCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new", "checkpoints")
	got, err := run("-quick", "-checkpoint", dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != readFile(t, "quick_all.txt") {
		t.Errorf("-checkpoint into a new directory differs from testdata/quick_all.txt:\n%s", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "rpc.store")); err != nil {
		t.Errorf("no result store in the created directory: %v", err)
	}
}

// TestCheckpointUnusableFailsFirst checks that a -checkpoint path that
// cannot hold a store fails the run before anything is printed.
func TestCheckpointUnusableFailsFirst(t *testing.T) {
	file := filepath.Join(t.TempDir(), "a-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run("-quick", "-checkpoint", file)
	if err == nil {
		t.Fatal("a file as -checkpoint DIR accepted")
	}
	if out != "" {
		t.Errorf("printed %q before failing", out)
	}
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFlagErrorsPrintedOnce runs the command line as main does, with
// standard error captured: a flag error is printed once, by the flag set,
// with the usage, and exits 2; -h prints the usage alone and exits 0; any
// other error is printed once and exits 1.
func TestFlagErrorsPrintedOnce(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string // printed exactly once
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-h"}, 0, "Usage of rpcstudy:"},
		{[]string{"-experiment", "nope"}, 1, `rpcstudy: unknown -experiment "nope"`},
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
		code := status(c.args)
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
