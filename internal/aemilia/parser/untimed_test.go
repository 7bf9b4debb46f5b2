package parser

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/rates"
)

// specFiles returns the shipped specs/*.aem files matching pattern.
func specFiles(tb testing.TB, pattern string) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "specs", pattern))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no specs match %s: %v", pattern, err)
	}
	return files
}

// TestFunctionalSpecsAreUntimedMarkov pins each shipped functional spec
// to its Markovian twin: specs/X_functional.aem is, byte for byte, the
// erasure of specs/X_markov.aem.
func TestFunctionalSpecsAreUntimedMarkov(t *testing.T) {
	for _, path := range specFiles(t, "*_functional.aem") {
		markov, err := os.ReadFile(strings.TrimSuffix(path, "_functional.aem") + "_markov.aem")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Parse(string(markov))
		if err != nil {
			t.Fatal(err)
		}
		aemilia.Untimed(a)
		if got := aemilia.Format(a); got != string(want) {
			t.Errorf("%s differs from the erasure of its Markovian twin:\n%s", filepath.Base(path), got)
		}
	}
}

// FuzzUntimed erases the timing of every description the parser accepts:
// no exponential or immediate annotation may survive, passive ones only
// on output interactions, a second erasure must change nothing, and the
// erased description must print and parse back to the same text.
func FuzzUntimed(f *testing.F) {
	for _, path := range specFiles(f, "*.aem") {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(paramSpec)
	f.Add(multiPortSpec)
	f.Fuzz(func(t *testing.T, src string) {
		a, err := Parse(src)
		if err != nil {
			return
		}
		aemilia.Untimed(a)
		for _, et := range a.ElemTypes {
			for _, b := range et.Behaviors {
				checkErased(t, et, b.Body)
			}
		}
		once := aemilia.Format(a)
		aemilia.Untimed(a)
		if twice := aemilia.Format(a); twice != once {
			t.Fatalf("erasure is not idempotent:\nonce:\n%s\ntwice:\n%s", once, twice)
		}
		b, err := Parse(once)
		if err != nil {
			t.Fatalf("erased description does not parse: %v\n%s", err, once)
		}
		if got := aemilia.Format(b); got != once {
			t.Fatalf("erased description does not round-trip:\nfirst:\n%s\nsecond:\n%s", once, got)
		}
	})
}

// checkErased fails on an annotation that Untimed must have erased.
func checkErased(t *testing.T, et *aemilia.ElemType, p aemilia.Process) {
	switch x := p.(type) {
	case *aemilia.Prefix:
		switch r := x.Act.Rate; r.Kind {
		case rates.Exp, rates.Immediate:
			t.Fatalf("%s.%s keeps %v", et.Name, x.Act.Name, r)
		case rates.Passive:
			if _, out := et.OutputPort(x.Act.Name); !out {
				t.Fatalf("%s.%s is passive but not an output", et.Name, x.Act.Name)
			}
		}
		checkErased(t, et, x.Cont)
	case *aemilia.Choice:
		for _, br := range x.Branches {
			checkErased(t, et, br)
		}
	case *aemilia.Guarded:
		checkErased(t, et, x.Body)
	}
}
