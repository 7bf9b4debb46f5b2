package statespace_test

import (
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/models"
	"repro/internal/statespace"
)

// TestTupleHashProbeLength interns the reachable tuples of the paper
// models, in breadth-first order as the generator does, and bounds the
// probe sequences of the tuple table. Identifiers do not depend on the
// hash, so a weak hash would pass every fingerprint and only cost time;
// this test is what catches it. At the table's load of at most 1/2, a
// well-mixed hash under linear probing averages about 1.5 probes.
func TestTupleHashProbeLength(t *testing.T) {
	rpc := models.DefaultRPCParams()
	rpcFunctional := rpc
	rpcFunctional.Mode = models.Functional
	st := models.DefaultStreamingParams()
	stFunctional := st
	stFunctional.Mode = models.Functional
	cases := []struct {
		name  string
		build func() (*aemilia.ArchiType, error)
	}{
		{"rpc-simplified", models.BuildRPCSimplified},
		{"rpc/markov", func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(rpc) }},
		{"rpc/functional", func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(rpcFunctional) }},
		{"streaming/markov", func() (*aemilia.ArchiType, error) { return models.BuildStreaming(st) }},
		{"streaming/functional", func() (*aemilia.ArchiType, error) { return models.BuildStreaming(stFunctional) }},
	}
	for _, tc := range cases {
		a, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := elab.Elaborate(a)
		if err != nil {
			t.Fatal(err)
		}
		c := m.Compile(nil)
		n := c.NumInstances()
		tab := statespace.NewTupleTable(n)
		tab.Intern(c.Initial())
		var (
			succ []elab.Succ
			next []uint32
		)
		for id := 0; id < tab.Len(); id++ {
			succ, next, err = c.Successors(tab.Tuple(uint32(id)), succ[:0], next[:0])
			if err != nil {
				t.Fatal(err)
			}
			for k := range succ {
				tab.Intern(next[k*n : (k+1)*n])
			}
		}
		mean, longest, load := tab.ProbeStats()
		t.Logf("%s: %d tuples, load %.2f, mean probe %.3f, longest %d", tc.name, tab.Len(), load, mean, longest)
		if load > 0.5 || mean > 2 {
			t.Errorf("%s: %d tuples at load %.2f take %.3f probes on average, want at most 2",
				tc.name, tab.Len(), load, mean)
		}
	}
}
