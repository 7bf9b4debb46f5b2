package lts

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/rates"
	"repro/internal/statespace"
)

// referenceRestrict is the restriction Restrict replaced: the same
// breadth-first compaction, but the kept edges are collected into one
// edge list (resolved rates included) and handed to build, which interns
// every rate afresh through RowBuilder.Add. Restrict reuses the input's
// rate ids and shares its rate table; the two must agree edge for edge.
func referenceRestrict(l *LTS, match func(label string) bool) *LTS {
	keepLab := make([]bool, l.syms.Len())
	for i := range keepLab {
		keepLab[i] = i == TauIndex || !match(l.syms.Name(i))
	}
	remap := make([]int32, l.NumStates)
	for i := range remap {
		remap[i] = -1
	}
	order := []int32{int32(l.Initial)}
	remap[l.Initial] = 0
	for qi := 0; qi < len(order); qi++ {
		lo, hi := l.csr.Row(int(order[qi]))
		for i := lo; i < hi; i++ {
			if d := l.csr.Dst[i]; keepLab[l.csr.Label[i]] && remap[d] < 0 {
				remap[d] = int32(len(order))
				order = append(order, d)
			}
		}
	}
	var edges []edge
	for _, oldIdx := range order {
		sp, base := l.Out(int(oldIdx)), l.EdgeBase(int(oldIdx))
		for k, d := range sp.Dst {
			if !keepLab[sp.Label[k]] || remap[d] < 0 {
				continue
			}
			edges = append(edges, edge{
				src: int(remap[oldIdx]), dst: int(remap[d]), label: int(sp.Label[k]),
				aux: l.EdgeAux(base + k), rate: sp.Rate(k),
			})
		}
	}
	out := build(l.syms, len(order), 0, edges)
	if l.descFn != nil {
		parent := l.descFn
		out.descFn = func(s int) string { return parent(int(order[s])) }
	}
	if l.Preds != nil {
		out.PredNames = l.PredNames
		out.Preds = make([][]bool, len(l.Preds))
		for p := range l.Preds {
			col := make([]bool, len(order))
			for newIdx, oldIdx := range order {
				col[newIdx] = l.Preds[p][oldIdx]
			}
			out.Preds[p] = col
		}
	}
	out.auxStart, out.auxLabel, out.auxCount = l.auxStart, l.auxLabel, l.auxCount
	return out
}

// sameRateBits reports whether two rates are bit-identical.
func sameRateBits(a, b rates.Rate) bool {
	return a.Kind == b.Kind && a.Slot == b.Slot && a.Priority == b.Priority &&
		math.Float64bits(a.Lambda) == math.Float64bits(b.Lambda) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
}

// diffSystems compares everything two systems expose — shape, edge
// columns, resolved rates (bit for bit), Aux handles, predicates and the
// attribution pool — and describes the first difference, or returns "".
// Rate tables may differ; only what each edge resolves to counts.
func diffSystems(got, want *LTS) string {
	g, w := &got.csr, &want.csr
	switch {
	case got.NumStates != want.NumStates || got.Initial != want.Initial:
		return fmt.Sprintf("shape (%d states, initial %d) vs (%d, %d)", got.NumStates, got.Initial, want.NumStates, want.Initial)
	case !slices.Equal(g.RowStart, w.RowStart):
		return "row starts"
	case !slices.Equal(g.Dst, w.Dst) || !slices.Equal(g.Label, w.Label):
		return "destination or label column"
	case (g.Aux == nil) != (w.Aux == nil) || !slices.Equal(g.Aux, w.Aux):
		return "aux column"
	case got.NumRateSlots() != want.NumRateSlots() || !slices.Equal(got.SlotDefaults(), want.SlotDefaults()):
		return "rate slots"
	case !slices.Equal(got.PredNames, want.PredNames) || !slices.EqualFunc(got.Preds, want.Preds, slices.Equal[[]bool]):
		return "predicates"
	case got.NumAux() != want.NumAux():
		return "attribution pool"
	}
	for s := range got.NumStates {
		gs, ws := got.Out(s), want.Out(s)
		for k := range gs.Len() {
			if !sameRateBits(gs.Rate(k), ws.Rate(k)) {
				return fmt.Sprintf("rate of edge %d of state %d: %+v vs %+v", k, s, gs.Rate(k), ws.Rate(k))
			}
		}
	}
	return ""
}

// randomAuxLTS builds a random rated system with a reward-attribution
// pool and Aux handles on some edges. Rates come from a small alphabet
// that includes slotted, immediate and passive annotations, ±0 and NaN,
// so equal-rate runs and bit-level distinctions both occur.
func randomAuxLTS(r *rand.Rand, n int) *LTS {
	alphabet := []rates.Rate{
		rates.UntimedRate(), rates.ExpRate(1), rates.ExpRate(2), rates.ExpSlot(1, 0.5),
		rates.ExpSlot(2, 3), rates.Inf(1, 1), rates.Inf(2, 0.25), rates.PassiveRate(),
		rates.ExpRate(0), rates.ExpRate(math.Copysign(0, -1)), rates.ExpRate(math.NaN()),
	}
	initial := r.Intn(n)
	syms := statespace.NewSymbols()
	labels := []int{TauIndex, syms.Intern("a"), syms.Intern("b"), syms.Intern("c")}
	const numAux = 3
	var edges []edge
	for s := 0; s < n; s++ {
		for k := r.Intn(4); k > 0; k-- {
			e := edge{
				src: s, dst: r.Intn(n), label: labels[r.Intn(len(labels))],
				rate: alphabet[r.Intn(len(alphabet))],
			}
			if r.Intn(3) == 0 {
				e.aux = 1 + r.Intn(numAux)
			}
			edges = append(edges, e)
		}
	}
	l := build(syms, n, initial, edges)
	l.auxStart, l.auxLabel, l.auxCount = []int32{0, 1, 3, 4}, []int32{1, 1, 2, 3}, []float64{0.5, 1, 2, 0.25}
	if r.Intn(2) == 0 {
		l.PredNames = []string{"p"}
		col := make([]bool, n)
		for s := range col {
			col[s] = r.Intn(2) == 0
		}
		l.Preds = [][]bool{col}
	}
	return l
}

// TestRestrictMatchesReference pins Restrict, and Hide over its result,
// to the edge-list reference on random rated systems with Aux columns.
func TestRestrictMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		l := randomAuxLTS(r, 1+r.Intn(30))
		high := LabelMatcherByNames([]string{"a", "b", "c"}[r.Intn(3)])
		notLow := LabelMatcherByNames("c")
		got, want := Restrict(l, high), referenceRestrict(l, high)
		if d := diffSystems(got, want); d != "" {
			t.Fatalf("trial %d: Restrict differs from the reference: %s", trial, d)
		}
		if d := diffSystems(Hide(got, notLow), Hide(want, notLow)); d != "" {
			t.Fatalf("trial %d: hidden restriction differs from the reference: %s", trial, d)
		}
	}
}

// TestUntimedSystemsStoreNoRateIDs: a system whose edges all carry one
// rate stores no RateID column — generated, built row by row, hidden or
// restricted — and its edges still resolve to that rate, a slotted one
// included. The first transition with a second rate brings the column
// back.
func TestUntimedSystemsStoreNoRateIDs(t *testing.T) {
	gen, err := Generate(workerModel(t), GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	syms := statespace.NewSymbols()
	a, b := syms.Intern("a"), syms.Intern("b")
	untimed := []edge{
		{src: 0, dst: 1, label: a, rate: rates.UntimedRate()},
		{src: 1, dst: 2, label: b, rate: rates.UntimedRate()},
		{src: 1, dst: 0, label: a, rate: rates.UntimedRate()},
	}
	built := build(syms, 3, 0, slices.Clone(untimed))
	slotted := build(syms, 2, 0, []edge{
		{src: 0, dst: 1, label: a, rate: rates.ExpSlot(2, 0.5)},
		{src: 1, dst: 0, label: TauIndex, rate: rates.ExpSlot(2, 0.5)},
	})
	for _, c := range []struct {
		name  string
		l     *LTS
		rate  rates.Rate
		slots []float64
	}{
		{"generated", gen, rates.UntimedRate(), nil},
		{"hidden", Hide(gen, LabelMatcherByNames("W.work")), rates.UntimedRate(), nil},
		{"restricted", Restrict(gen, LabelMatcherByInstance("S")), rates.UntimedRate(), nil},
		{"built", built, rates.UntimedRate(), nil},
		{"restricted built", Restrict(built, LabelMatcherByNames("b")), rates.UntimedRate(), nil},
		{"slotted", slotted, rates.ExpSlot(2, 0.5), []float64{0, 0.5}},
		{"restricted slotted", Restrict(slotted, LabelMatcherByNames("x")), rates.ExpSlot(2, 0.5), []float64{0, 0.5}},
	} {
		if c.l.csr.RateID != nil {
			t.Errorf("%s: RateID column of %d entries, want none", c.name, len(c.l.csr.RateID))
		}
		if c.l.NumTransitions() == 0 {
			t.Errorf("%s: no transitions", c.name)
		}
		c.l.Edges(func(src, _, _ int, r rates.Rate) {
			if !sameRateBits(r, c.rate) {
				t.Errorf("%s: an edge of state %d resolves to %+v, want %+v", c.name, src, r, c.rate)
			}
		})
		if !slices.Equal(c.l.SlotDefaults(), c.slots) {
			t.Errorf("%s: slot defaults %v, want %v", c.name, c.l.SlotDefaults(), c.slots)
		}
	}
	timed := build(syms, 3, 0, append(untimed, edge{src: 2, dst: 0, label: b, rate: rates.ExpRate(1)}))
	if want := []int32{0, 0, 0, 1}; !slices.Equal(timed.csr.RateID, want) {
		t.Errorf("after a timed transition: RateID %v, want %v", timed.csr.RateID, want)
	}
}

// TestRestrictSizesExactly checks that every column Restrict builds ends
// exactly full (len == cap), as TestBuildSizesExactly pins for
// ctmc.Build: the breadth-first search counts the kept edges, so the row
// builder is sized once. It covers random rated systems with Aux columns
// and a generated Markovian system.
func TestRestrictSizesExactly(t *testing.T) {
	grid, err := Generate(gridModel(t, 6), GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	systems := map[string]*LTS{"grid": Restrict(grid, LabelMatcherByInstance("C2"))}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 100; i++ {
		l := randomAuxLTS(r, 1+r.Intn(60))
		systems[fmt.Sprintf("random-%d", i)] = Restrict(l, LabelMatcherByNames([]string{"a", "b", "c"}[r.Intn(3)]))
	}
	for name, l := range systems {
		for col, s := range map[string][]int32{
			"RowStart": l.csr.RowStart, "Dst": l.csr.Dst, "Label": l.csr.Label, "RateID": l.csr.RateID, "Aux": l.csr.Aux,
		} {
			if len(s) != cap(s) {
				t.Errorf("%s: %s has length %d, capacity %d", name, col, len(s), cap(s))
			}
		}
	}
}

// FuzzRestrictHide decodes bytes into a small rated system with Aux
// handles and checks Restrict against referenceRestrict, then Hide over
// both, and that every edge of the restricted system resolves to the
// bit-identical rate of the parent edge it was copied from. Byte 0 picks
// the state count, byte 1 the high and low label masks and the initial
// state, and every further 4 bytes one edge (source, destination,
// label and Aux handle, rate).
func FuzzRestrictHide(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 2, 5, 1, 2, 0, 3, 9})
	f.Add([]byte{4, 1, 2, 0, 1, 8, 0, 1, 2, 9, 1, 2, 3, 10, 2, 3, 0, 7, 3, 3, 1, 4})
	f.Add([]byte{2, 6, 0, 0, 0, 8, 0, 1, 0, 9, 1, 0, 1, 10, 1, 1, 2, 8})
	alphabet := []rates.Rate{
		rates.UntimedRate(), rates.ExpRate(1), rates.ExpRate(2), rates.ExpSlot(1, 0.5),
		rates.Inf(1, 1), rates.Inf(2, 0.25), rates.PassiveRate(), rates.PassiveWeight(2),
		rates.ExpRate(0), rates.ExpRate(math.Copysign(0, -1)), rates.ExpRate(math.NaN()),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%8
		high, low := data[1]&7, data[1]>>3&7 // label masks over a, b, c
		syms := statespace.NewSymbols()
		labels := []int{TauIndex, syms.Intern("a"), syms.Intern("b"), syms.Intern("c")}
		var edges []edge
		for b := data[2:min(len(data), 2+4*64)]; len(b) >= 4; b = b[4:] {
			edges = append(edges, edge{
				src: int(b[0]) % n, dst: int(b[1]) % n,
				label: labels[b[2]%4], aux: int(b[2] / 4 % 3),
				rate: alphabet[int(b[3])%len(alphabet)],
			})
		}
		l := build(syms, n, int(data[1]>>6)%n, edges)
		l.descFn = strconv.Itoa
		l.auxStart, l.auxLabel, l.auxCount = []int32{0, 1, 3}, []int32{1, 1, 2}, []float64{0.5, 1, 2}
		inMask := func(mask byte) func(string) bool {
			return func(label string) bool {
				for i, name := range []string{"a", "b", "c"} {
					if mask&(1<<i) != 0 && label == name {
						return true
					}
				}
				return false
			}
		}
		notLow := func(label string) bool { return !inMask(low)(label) }
		got, want := Restrict(l, inMask(high)), referenceRestrict(l, inMask(high))
		if d := diffSystems(got, want); d != "" {
			t.Fatalf("Restrict differs from the reference: %s", d)
		}
		if d := diffSystems(Hide(got, notLow), Hide(want, notLow)); d != "" {
			t.Fatalf("hidden restriction differs from the reference: %s", d)
		}
		for s := 0; s < got.NumStates; s++ {
			if d := rowCorrespondence(l, got, s, inMask(high)); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// rowCorrespondence checks restricted state s of r, a restriction of l
// whose descriptions are l's state indices, against l directly: the row
// of s must hold exactly the parent row's kept edges — same label, parent
// destination, Aux handle and rate bits — in any order. It describes the
// first mismatch, or returns "".
func rowCorrespondence(l, r *LTS, s int, high func(string) bool) string {
	type edge struct {
		label, dst, aux int
		rate            [5]uint64
	}
	key := func(label, dst, aux int, rt rates.Rate) edge {
		return edge{label, dst, aux, [5]uint64{uint64(rt.Kind), uint64(rt.Slot), uint64(rt.Priority),
			math.Float64bits(rt.Lambda), math.Float64bits(rt.Weight)}}
	}
	parentOf := func(st int) int {
		p, err := strconv.Atoi(r.StateDesc(st))
		if err != nil {
			panic(err)
		}
		return p
	}
	var got, want []edge
	sp := r.Out(s)
	for k := 0; k < sp.Len(); k++ {
		got = append(got, key(int(sp.Label[k]), parentOf(int(sp.Dst[k])), r.EdgeAux(r.EdgeBase(s)+k), sp.Rate(k)))
	}
	p := parentOf(s)
	sp = l.Out(p)
	for k := 0; k < sp.Len(); k++ {
		if li := int(sp.Label[k]); li == TauIndex || !high(l.LabelName(li)) {
			want = append(want, key(li, int(sp.Dst[k]), l.EdgeAux(l.EdgeBase(p)+k), sp.Rate(k)))
		}
	}
	cmpEdge := func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.label, b.label), cmp.Compare(a.dst, b.dst), cmp.Compare(a.aux, b.aux),
			slices.Compare(a.rate[:], b.rate[:]))
	}
	slices.SortFunc(got, cmpEdge)
	slices.SortFunc(want, cmpEdge)
	if !slices.Equal(got, want) {
		return fmt.Sprintf("restricted state %d (parent %d): edges %v, parent's kept edges %v", s, p, got, want)
	}
	return ""
}
