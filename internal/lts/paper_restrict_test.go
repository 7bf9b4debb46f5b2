package lts_test

import (
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/rates"
)

// paperGenerator returns a function that elaborates and generates the
// result of one of the models constructors, failing t on any error.
func paperGenerator(t *testing.T) func(*aemilia.ArchiType, error) *lts.LTS {
	return func(a *aemilia.ArchiType, err error) *lts.LTS {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		m, err := elab.Elaborate(a)
		if err != nil {
			t.Fatal(err)
		}
		l, err := lts.Generate(m, lts.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
}

func streamingParams(mode models.Mode, ap, client int64) models.StreamingParams {
	p := models.DefaultStreamingParams()
	p.Mode = mode
	p.APCapacity, p.ClientCapacity = ap, client
	return p
}

// TestRestrictMatchesReferencePaperModels pins Restrict to the edge-list
// reference on the restricted variants of both paper models'
// noninterference checks, before and after hiding the non-low labels,
// and on a Markovian streaming model whose edges carry several rates.
func TestRestrictMatchesReferencePaperModels(t *testing.T) {
	generate := paperGenerator(t)
	rpc := models.DefaultRPCParams()
	rpc.Mode = models.Functional
	rpcL := generate(models.BuildRPCRevised(rpc))
	simpL := generate(models.BuildRPCSimplified())
	streamL := generate(models.BuildStreaming(streamingParams(models.Functional, 6, 6)))
	markovL := generate(models.BuildStreaming(streamingParams(models.Markovian, 4, 4)))
	rpcHigh := lts.LabelMatcherByNames(models.RPCHighLabels()...)
	streamHigh := lts.LabelMatcherByNames(models.StreamingHighLabels()...)
	low := lts.LabelMatcherByInstance("C")
	notLow := func(label string) bool { return !low(label) }
	for _, c := range []struct {
		name string
		l    *lts.LTS
		high func(string) bool
	}{
		{"rpc revised", rpcL, rpcHigh},
		{"rpc simplified", simpL, rpcHigh},
		{"streaming", streamL, streamHigh},
		{"streaming markovian", markovL, streamHigh},
	} {
		got, want := lts.Restrict(c.l, c.high), lts.ReferenceRestrictForTest(c.l, c.high)
		if got.NumStates == c.l.NumStates {
			t.Fatalf("%s: restriction removed no state; the case tests nothing", c.name)
		}
		if d := lts.DiffSystemsForTest(got, want); d != "" {
			t.Fatalf("%s: Restrict differs from the reference: %s", c.name, d)
		}
		if d := lts.DiffSystemsForTest(lts.Hide(got, notLow), lts.Hide(want, notLow)); d != "" {
			t.Fatalf("%s: restricted variant differs from the reference: %s", c.name, d)
		}
	}
}

// TestCSRBytesPerEdge pins the CSR column layout through the -stats
// accounting: per edge a destination and a label (4 bytes each), plus a
// 4-byte rate id only when the system has more than one rate; per state
// a row start; and one 40-byte rates.Rate per distinct rate. The
// functional streaming model has a single rate (Untimed), so an edge
// costs 8 bytes; the Markovian one has a handful, and an edge costs 12.
func TestCSRBytesPerEdge(t *testing.T) {
	for _, c := range []struct {
		name    string
		mode    models.Mode
		rates   int // distinct rates, 0 = only check it is more than one
		perEdge int
	}{
		{"functional", models.Functional, 1, 8},
		{"markovian", models.Markovian, 0, 12},
	} {
		l := paperGenerator(t)(models.BuildStreaming(streamingParams(c.mode, 6, 6)))
		distinct := map[rates.Rate]bool{}
		l.Edges(func(_, _, _ int, r rates.Rate) { distinct[r] = true })
		if c.rates > 0 && len(distinct) != c.rates || c.rates == 0 && len(distinct) < 2 {
			t.Fatalf("%s: %d distinct rates", c.name, len(distinct))
		}
		_, csrBytes, auxBytes := l.MemStats()
		want := c.perEdge*l.NumTransitions() + 4*(l.NumStates+1) + 40*len(distinct)
		if csrBytes != want || auxBytes != 0 {
			t.Errorf("%s: CSR %d bytes (aux %d) for %d edges, %d states, %d rates; want %d",
				c.name, csrBytes, auxBytes, l.NumTransitions(), l.NumStates, len(distinct), want)
		}
	}
}
