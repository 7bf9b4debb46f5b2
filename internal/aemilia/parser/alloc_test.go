package parser

import (
	"os"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/models"
)

// TestFrontEndAllocs pins the allocations of parsing the streaming
// Markovian spec and of printing its builder's description (Go 1.24).
// Lexing allocates nothing, and printing grows one buffer, so the counts
// are the description's nodes and maps, its expressions' and rates'
// strings, and the buffer. A change that moves them updates the numbers
// here and says why in CHANGES.md.
func TestFrontEndAllocs(t *testing.T) {
	src, err := os.ReadFile("../../../specs/streaming_markov.aem")
	if err != nil {
		t.Fatal(err)
	}
	p := models.DefaultStreamingParams()
	p.Mode = models.Markovian
	arch, err := models.BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	parse := testing.AllocsPerRun(20, func() {
		if _, err := Parse(text); err != nil {
			t.Fatal(err)
		}
	})
	format := testing.AllocsPerRun(20, func() { aemilia.Format(arch) })
	if parse != 323 || format != 83 {
		t.Errorf("allocs: Parse %v, Format %v; want 323 and 83", parse, format)
	}
}
