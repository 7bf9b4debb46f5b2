package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// run drives the streamingstudy command line and returns what it prints.
func run(args ...string) (string, error) {
	var out bytes.Buffer
	err := experiments.RunStudy(experiments.StreamingStudy, args, &out)
	return out.String(), err
}

func TestRunSect3Quick(t *testing.T) {
	if _, err := run("-experiment", "sect3", "-quick"); err != nil {
		t.Fatal(err)
	}
}

func TestRunTransientQuick(t *testing.T) {
	if _, err := run("-experiment", "transient", "-quick", "-csv"); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if _, err := run("-definitely-not-a-flag"); err == nil {
		t.Fatal("unknown flag should error")
	}
}

func TestRunUnknownExperimentErrors(t *testing.T) {
	out, err := run("-experiment", "policies")
	if err == nil {
		t.Fatal("an experiment of the other study should error")
	}
	if want := "all, sect3, fig4, fig6, transient, fig8"; !strings.Contains(err.Error(), want) {
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

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
