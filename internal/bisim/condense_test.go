package bisim

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
)

// referenceCondense is the condensation condense replaced: every kept
// edge in one list, one global sort by (src, label, dst), one
// deduplication pass. condense buckets the edges by source and sorts each
// row on its own; the two must agree exactly.
func referenceCondense(l *lts.LTS) *condensation {
	comp, nc := tauSCCs(l)
	var edges []cedge
	for st := 0; st < l.NumStates; st++ {
		sp := l.Out(st)
		cs := comp[st]
		for k := 0; k < sp.Len(); k++ {
			cd := comp[sp.Dst[k]]
			if sp.Label[k] == lts.TauIndex && cs == cd {
				continue
			}
			edges = append(edges, cedge{src: cs, label: sp.Label[k], dst: cd})
		}
	}
	slices.SortFunc(edges, func(a, b cedge) int {
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		if c := cmp.Compare(a.label, b.label); c != 0 {
			return c
		}
		return cmp.Compare(a.dst, b.dst)
	})
	edges = slices.Compact(edges)
	rowOff := make([]int32, nc+1)
	for _, e := range edges {
		rowOff[e.src+1]++
	}
	for c := 1; c <= nc; c++ {
		rowOff[c] += rowOff[c-1]
	}
	return &condensation{comp: comp, n: nc, edges: edges, rowOff: rowOff}
}

// checkCondense compares condense with referenceCondense on l.
func checkCondense(t *testing.T, name string, l *lts.LTS) {
	t.Helper()
	got, want := condense(l), referenceCondense(l)
	if got.n != want.n || !slices.Equal(got.comp, want.comp) {
		t.Fatalf("%s: components differ", name)
	}
	if len(got.edges) == 0 && len(want.edges) == 0 {
		got.edges, want.edges = nil, nil
	}
	if !reflect.DeepEqual(got.edges, want.edges) || !slices.Equal(got.rowOff, want.rowOff) {
		t.Fatalf("%s: condensed edges differ (%d vs %d edges)", name, len(got.edges), len(want.edges))
	}
}

// TestCondenseMatchesReference pins the bucketed condensation to the
// global-sort one on random systems — duplicate and tau-cycle edges are
// frequent at these sizes — and on the hidden and restricted variants of
// both paper models' noninterference checks.
func TestCondenseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		checkCondense(t, "random", randomLTS(r, 1+r.Intn(40)))
	}

	rpc := models.DefaultRPCParams()
	rpc.Mode = models.Functional
	stream := models.DefaultStreamingParams()
	stream.Mode = models.Functional
	stream.APCapacity, stream.ClientCapacity = 6, 6
	for _, m := range []struct {
		name  string
		build func() (*elab.Model, error)
		high  func(string) bool
	}{
		{"rpc", func() (*elab.Model, error) {
			a, err := models.BuildRPCRevised(rpc)
			if err != nil {
				return nil, err
			}
			return elab.Elaborate(a)
		}, lts.LabelMatcherByNames(models.RPCHighLabels()...)},
		{"streaming", func() (*elab.Model, error) {
			a, err := models.BuildStreaming(stream)
			if err != nil {
				return nil, err
			}
			return elab.Elaborate(a)
		}, lts.LabelMatcherByNames(models.StreamingHighLabels()...)},
	} {
		em, err := m.build()
		if err != nil {
			t.Fatal(err)
		}
		l, err := lts.Generate(em, lts.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		low := lts.LabelMatcherByInstance("C")
		notLow := func(label string) bool { return !low(label) }
		checkCondense(t, m.name+" hidden", lts.Hide(l, notLow))
		checkCondense(t, m.name+" restricted", lts.Hide(lts.Restrict(l, m.high), notLow))
	}
}
