package models

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aemilia"
)

// TestSpecsMatchBuilders pins the shipped Æmilia specs to the Go
// builders: each specs/*.aem file is, byte for byte, aemilia.Format of
// its builder at default parameters, so neither copy of a paper model can
// drift from the other unnoticed.
func TestSpecsMatchBuilders(t *testing.T) {
	rpc := func(mode Mode) func() (*aemilia.ArchiType, error) {
		return func() (*aemilia.ArchiType, error) {
			p := DefaultRPCParams()
			p.Mode = mode
			return BuildRPCRevised(p)
		}
	}
	streaming := func(mode Mode) func() (*aemilia.ArchiType, error) {
		return func() (*aemilia.ArchiType, error) {
			p := DefaultStreamingParams()
			p.Mode = mode
			return BuildStreaming(p)
		}
	}
	builders := map[string]func() (*aemilia.ArchiType, error){
		"rpc_simplified.aem":         BuildRPCSimplified,
		"rpc_revised_functional.aem": rpc(Functional),
		"rpc_revised_markov.aem":     rpc(Markovian),
		"streaming_functional.aem":   streaming(Functional),
		"streaming_markov.aem":       streaming(Markovian),
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.aem"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(builders) {
		t.Fatalf("specs/ holds %d .aem files, want %d: %v", len(files), len(builders), files)
	}
	for _, path := range files {
		name := filepath.Base(path)
		build, ok := builders[name]
		if !ok {
			t.Errorf("%s: no builder", name)
			continue
		}
		a, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := aemilia.Format(a); got != string(want) {
			t.Errorf("%s differs from aemilia.Format of its builder:\n%s", name, got)
		}
	}
}
