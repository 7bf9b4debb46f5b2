package bisim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
)

// tauSuccessors returns every state's tau successors, in row order.
func tauSuccessors(l *lts.LTS) [][]int32 {
	succ := make([][]int32, l.NumStates)
	for st := range succ {
		sp := l.Out(st)
		for k := 0; k < sp.Len(); k++ {
			if sp.Label[k] == lts.TauIndex {
				succ[st] = append(succ[st], sp.Dst[k])
			}
		}
	}
	return succ
}

// tauReach returns the states reachable from s over succ by a
// breadth-first search, s included.
func tauReach(succ [][]int32, s int32) []bool {
	seen := make([]bool, len(succ))
	seen[s] = true
	for queue := []int32{s}; len(queue) > 0; queue = queue[1:] {
		for _, w := range succ[queue[0]] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

// oracleComponents computes the tau strongly connected components of l
// without tauComponents' algorithm. Two states share a component when
// each reaches the other by tau steps: a component is the states that a
// breadth-first search from its first state reaches and that one on the
// reversed tau graph reaches too. The components are numbered in the
// order a plain recursive depth-first search — from states in ascending
// order, along tau edges in row order — finishes the first-visited
// member of each, which is the order Tarjan's algorithm pops them in.
func oracleComponents(l *lts.LTS) (comp []int32, numComp int) {
	n := l.NumStates
	succ := tauSuccessors(l)
	pred := make([][]int32, n)
	for v, ws := range succ {
		for _, w := range ws {
			pred[w] = append(pred[w], int32(v))
		}
	}
	member := make([]int32, n) // a component's label: its least state
	for i := range member {
		member[i] = -1
	}
	for s := range int32(n) {
		if member[s] >= 0 {
			continue
		}
		fwd, bwd := tauReach(succ, s), tauReach(pred, s)
		for v := range fwd {
			if fwd[v] && bwd[v] {
				member[v] = s
			}
		}
	}

	visited := make([]bool, n)
	var discovered, finished []int32 // states as the search enters and leaves them
	var dfs func(v int32)
	dfs = func(v int32) {
		visited[v] = true
		discovered = append(discovered, v)
		for _, w := range succ[v] {
			if !visited[w] {
				dfs(w)
			}
		}
		finished = append(finished, v)
	}
	for s := range int32(n) {
		if !visited[s] {
			dfs(s)
		}
	}
	// A component's root is its first-discovered member.
	root := make(map[int32]int32) // component label -> root
	for _, v := range discovered {
		if _, ok := root[member[v]]; !ok {
			root[member[v]] = v
		}
	}
	id := make(map[int32]int32) // component label -> number
	for _, v := range finished {
		if root[member[v]] == v {
			id[member[v]] = int32(len(id))
		}
	}
	comp = make([]int32, n)
	for v := range comp {
		comp[v] = id[member[v]]
	}
	return comp, len(id)
}

// referenceCondense is the condensation condense replaced, over the
// oracle's components: every kept edge in one list, one global sort by
// (src, label, dst), one deduplication pass. condense buckets the edges
// by source and sorts each row on its own; the two must agree exactly.
func referenceCondense(l *lts.LTS) *condensation {
	comp, nc := oracleComponents(l)
	type edge struct{ src, label, dst int32 }
	var edges []edge
	for st := 0; st < l.NumStates; st++ {
		sp := l.Out(st)
		cs := comp[st]
		for k := 0; k < sp.Len(); k++ {
			cd := comp[sp.Dst[k]]
			if sp.Label[k] == lts.TauIndex && cs == cd {
				continue
			}
			edges = append(edges, edge{src: cs, label: sp.Label[k], dst: cd})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		if c := cmp.Compare(a.label, b.label); c != 0 {
			return c
		}
		return cmp.Compare(a.dst, b.dst)
	})
	edges = slices.Compact(edges)
	cd := &condensation{comp: comp, n: nc, rowOff: make([]int32, nc+1)}
	for _, e := range edges {
		cd.edges = append(cd.edges, uint64(e.label)<<32|uint64(uint32(e.dst)))
		cd.rowOff[e.src+1]++
	}
	for c := 1; c <= nc; c++ {
		cd.rowOff[c] += cd.rowOff[c-1]
	}
	return cd
}

// checkCondense compares condense with referenceCondense on l: the same
// components under the same ids, the same edges, and every tau edge
// between two components pointing to the smaller id, the pop order
// refineBranching's single pass relies on.
func checkCondense(t *testing.T, name string, l *lts.LTS) {
	t.Helper()
	got, want := condense(l), referenceCondense(l)
	if got.n != want.n || !slices.Equal(got.comp, want.comp) {
		t.Fatalf("%s: components %v (%d), oracle %v (%d)\n%s", name, got.comp, got.n, want.comp, want.n, dump(l))
	}
	for st := 0; st < l.NumStates; st++ {
		sp := l.Out(st)
		for k := 0; k < sp.Len(); k++ {
			if c, d := got.comp[st], got.comp[sp.Dst[k]]; sp.Label[k] == lts.TauIndex && d > c {
				t.Fatalf("%s: tau edge %d -> %d goes from component %d up to %d", name, st, sp.Dst[k], c, d)
			}
		}
	}
	if len(got.edges) == 0 && len(want.edges) == 0 {
		got.edges, want.edges = nil, nil
	}
	if !slices.Equal(got.edges, want.edges) || !slices.Equal(got.rowOff, want.rowOff) {
		t.Fatalf("%s: condensed edges differ (%d vs %d edges)", name, len(got.edges), len(want.edges))
	}
}

// TestCondenseMatchesReference pins the components to the oracle's and
// the bucketed condensation to the global-sort one, on random systems —
// duplicate and tau-cycle edges are frequent at these sizes — and on the
// hidden and restricted variants of both paper models' noninterference
// checks.
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
