package statespace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/rates"
)

func TestSymbolsTauIsZero(t *testing.T) {
	s := NewSymbols()
	if got := s.Intern(TauName); got != TauIndex {
		t.Fatalf("Intern(tau) = %d, want %d", got, TauIndex)
	}
	if s.Name(TauIndex) != TauName {
		t.Fatalf("Name(0) = %q, want %q", s.Name(TauIndex), TauName)
	}
}

func TestSymbolsInternStable(t *testing.T) {
	s := NewSymbols()
	a := s.Intern("a")
	b := s.Intern("b")
	if a == b {
		t.Fatal("distinct names share an index")
	}
	if s.Intern("a") != a || s.Intern("b") != b {
		t.Fatal("re-interning changed the index")
	}
	if i, ok := s.Lookup("b"); !ok || i != b {
		t.Fatalf("Lookup(b) = (%d, %t), want (%d, true)", i, ok, b)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Fatal("Lookup of an absent name succeeded")
	}
}

func TestInternerBasic(t *testing.T) {
	in := NewInterner()
	id1, fresh1 := in.Intern([]byte("alpha"))
	if !fresh1 {
		t.Fatal("first Intern not fresh")
	}
	id2, fresh2 := in.Intern([]byte("alpha"))
	if fresh2 || id2 != id1 {
		t.Fatalf("re-Intern = (%d, %t), want (%d, false)", id2, fresh2, id1)
	}
	if got := string(in.Bytes(id1)); got != "alpha" {
		t.Fatalf("Bytes(%d) = %q, want %q", id1, got, "alpha")
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d, want 1", in.Len())
	}
	if id, ok := in.Lookup([]byte("alpha")); !ok || id != id1 {
		t.Fatalf("Lookup = (%d, %t), want (%d, true)", id, ok, id1)
	}
	if _, ok := in.Lookup([]byte("beta")); ok {
		t.Fatal("Lookup of an absent key succeeded")
	}
}

// TestInternerIDsAreDense verifies ids are assigned 0,1,2,… in first-seen
// order — the property that lets callers index flat side tables by id.
func TestInternerIDsAreDense(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		id, fresh := in.Intern(key)
		if !fresh || id != uint32(i) {
			t.Fatalf("Intern #%d = (%d, %t), want (%d, true)", i, id, fresh, i)
		}
	}
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if id, fresh := in.Intern(key); fresh || id != uint32(i) {
			t.Fatalf("re-Intern #%d = (%d, %t)", i, id, fresh)
		}
		if got := string(in.Bytes(uint32(i))); got != string(key) {
			t.Fatalf("Bytes(%d) = %q after growth, want %q", i, got, key)
		}
	}
}

// TestInternerCollisions drives many keys through a table that starts tiny
// relative to the load, forcing hash collisions, probe chains, and several
// grow/rehash cycles; every key must keep resolving to its own id, and
// distinct keys must never share one.
func TestInternerCollisions(t *testing.T) {
	in := NewInterner()
	const n = 20000
	ids := make(map[uint32]string, n)
	for i := 0; i < n; i++ {
		// Keys engineered to share long prefixes, which stresses the
		// byte-wise equality check behind a matching hash slot.
		key := []byte(fmt.Sprintf("common-prefix-%d-%d", i%7, i))
		id, fresh := in.Intern(key)
		if !fresh {
			t.Fatalf("key %q reported as duplicate", key)
		}
		if prev, clash := ids[id]; clash {
			t.Fatalf("id %d assigned to both %q and %q", id, prev, key)
		}
		ids[id] = string(key)
	}
	if in.Len() != n {
		t.Fatalf("Len = %d, want %d", in.Len(), n)
	}
	for id, key := range ids {
		if got := string(in.Bytes(id)); got != key {
			t.Fatalf("Bytes(%d) = %q, want %q", id, got, key)
		}
		if got, fresh := in.Intern([]byte(key)); fresh || got != id {
			t.Fatalf("re-Intern(%q) = (%d, %t), want (%d, false)", key, got, fresh, id)
		}
	}
}

// TestInternerEmptyKey: the empty key is a valid (if unusual) key and must
// intern exactly once.
func TestInternerEmptyKey(t *testing.T) {
	in := NewInterner()
	id, fresh := in.Intern(nil)
	if !fresh {
		t.Fatal("empty key not fresh on first Intern")
	}
	if id2, fresh2 := in.Intern([]byte{}); fresh2 || id2 != id {
		t.Fatalf("empty key re-Intern = (%d, %t), want (%d, false)", id2, fresh2, id)
	}
	if len(in.Bytes(id)) != 0 {
		t.Fatal("empty key round-trips non-empty")
	}
}

// Edge is one transition in edge-list form, the input of Build.
type Edge struct {
	// Src and Dst are state indices.
	Src, Dst int32
	// Label indexes a Symbols table.
	Label int32
	// Aux is the per-edge annotation handle (0 = none); Build carries it
	// into the CSR Aux column only when at least one edge sets it.
	Aux int32
	// Rate is the timing annotation.
	Rate rates.Rate
}

// Build constructs CSR storage over n states from an edge list in any
// order, by one global stable sort: edges grouped by source, each row
// sorted by (label, destination) with insertion order breaking exact
// ties. Rates are interned in edge-list order; the RateID column stays
// nil when every edge has the first rate. It shares no sorting code with
// RowBuilder, which the tests below hold to it.
func Build(n int, edges []Edge) CSR {
	c := CSR{
		RowStart: make([]int32, n+1),
		Dst:      make([]int32, len(edges)),
		Label:    make([]int32, len(edges)),
	}
	var rt RateTable
	ids := make([]int32, len(edges))
	for i := range edges {
		ids[i] = rt.Intern(&edges[i].Rate)
	}
	c.Rates = rt.table
	if len(rt.table) > 1 {
		c.RateID = make([]int32, len(edges))
	}
	perm := make([]int32, len(edges))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(x, y int) bool {
		a, b := &edges[perm[x]], &edges[perm[y]]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Dst < b.Dst
	})
	for _, e := range edges {
		c.RowStart[e.Src+1]++
	}
	for s := 1; s <= n; s++ {
		c.RowStart[s] += c.RowStart[s-1]
	}
	hasAux := false
	for i := range edges {
		if edges[i].Aux != 0 {
			hasAux = true
			break
		}
	}
	if hasAux {
		c.Aux = make([]int32, len(edges))
	}
	for i, p := range perm {
		e := &edges[p]
		c.Dst[i] = e.Dst
		c.Label[i] = e.Label
		if c.RateID != nil {
			c.RateID[i] = ids[p]
		}
		if hasAux {
			c.Aux[i] = e.Aux
		}
	}
	return c
}

func TestCSRBuildSortsAndIndexes(t *testing.T) {
	edges := []Edge{
		{Src: 1, Dst: 0, Label: 2, Rate: rates.UntimedRate()},
		{Src: 0, Dst: 1, Label: 1, Rate: rates.UntimedRate()},
		{Src: 0, Dst: 0, Label: 1, Rate: rates.UntimedRate()},
		{Src: 0, Dst: 1, Label: 0, Rate: rates.UntimedRate()},
	}
	c := Build(3, edges)
	if c.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", c.NumEdges())
	}
	lo, hi := c.Row(0)
	if hi-lo != 3 {
		t.Fatalf("row 0 has %d edges, want 3", hi-lo)
	}
	// Canonical (label, dst) order within the row.
	wantLabel := []int32{0, 1, 1}
	wantDst := []int32{1, 0, 1}
	for i := lo; i < hi; i++ {
		if c.Label[i] != wantLabel[i-lo] || c.Dst[i] != wantDst[i-lo] {
			t.Fatalf("row 0 edge %d = (label %d, dst %d), want (%d, %d)",
				i-lo, c.Label[i], c.Dst[i], wantLabel[i-lo], wantDst[i-lo])
		}
	}
	if lo, hi := c.Row(2); lo != hi {
		t.Fatalf("row 2 should be empty, got %d edges", hi-lo)
	}
}

// TestCSRBuildStableOnTies: edges with identical (src, label, dst) keep
// their insertion order, which pins down float accumulation order in every
// consumer.
func TestCSRBuildStableOnTies(t *testing.T) {
	edges := []Edge{
		{Src: 0, Dst: 1, Label: 0, Rate: rates.ExpRate(1)},
		{Src: 0, Dst: 1, Label: 0, Rate: rates.ExpRate(2)},
		{Src: 0, Dst: 1, Label: 0, Rate: rates.ExpRate(3)},
	}
	c := Build(2, edges)
	for i, want := range []float64{1, 2, 3} {
		if c.Rate(int32(i)).Lambda != want {
			t.Fatalf("tie order not stable: Rate[%d].Lambda = %v, want %v",
				i, c.Rate(int32(i)).Lambda, want)
		}
	}
}

// TestRowBuilderMatchesBuild feeds the same source-ordered edge list to
// Build and to a RowBuilder: the CSR arrays must be identical, including
// stable tie order, a lazily materialized Aux column, and empty rows.
func TestRowBuilderMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var edges []Edge
	const states = 200
	for s := 0; s < states; s++ {
		for k := r.Intn(90); k > 0; k-- { // some rows long enough for merge sorting
			e := Edge{Src: int32(s), Dst: int32(r.Intn(5)), Label: int32(r.Intn(4)), Rate: rates.ExpRate(float64(len(edges)))}
			if s > 50 && r.Intn(5) == 0 {
				e.Aux = int32(1 + r.Intn(3))
			}
			edges = append(edges, e)
		}
	}
	want := Build(states, edges)
	b := NewRowBuilder()
	next := 0
	for s := 0; s < states; s++ {
		for ; next < len(edges) && edges[next].Src == int32(s); next++ {
			e := edges[next]
			b.Add(e.Dst, e.Label, e.Aux, e.Rate)
		}
		b.EndRow()
	}
	if got := b.CSR(); !reflect.DeepEqual(got, want) {
		t.Fatal("RowBuilder CSR differs from Build")
	}
}

// TestRateColumnMatchesBuild feeds random source-ordered edge lists to
// Build and to RowBuilders filled through Add and through AddID: the CSR
// columns must agree exactly, the RateID column included, which both
// sides leave nil when every edge has rate id 0 and otherwise
// materialize at the first non-zero id. That first id falls inside an
// insertion-sorted short row, inside a long row that goes through
// sort.Stable, on the first edge of a row, or nowhere.
func TestRateColumnMatchesBuild(t *testing.T) {
	alphabet := []rates.Rate{rates.UntimedRate(), rates.ExpRate(1), rates.ExpSlot(1, 2), rates.Inf(1, 1)}
	for _, where := range []string{"short row", "long row", "row boundary", "all zero"} {
		r := rand.New(rand.NewSource(19))
		for trial := 0; trial < 50; trial++ {
			const states = 40
			lens := make([]int, states)
			for s := range lens {
				lens[s] = r.Intn(shortRow + 1)
				if r.Intn(4) == 0 {
					lens[s] = shortRow + 1 + r.Intn(2*shortRow)
				}
			}
			// The row holding the first non-zero id, and its offset there.
			row := r.Intn(states)
			switch where {
			case "short row":
				lens[row] = 2 + r.Intn(shortRow-1)
			case "long row":
				lens[row] = shortRow + 1 + r.Intn(2*shortRow)
			case "row boundary":
				lens[row] = 1 + r.Intn(2*shortRow)
			}
			at := 0
			if where == "short row" || where == "long row" {
				at = 1 + r.Intn(lens[row]-1)
			}
			var edges []Edge
			timed := false
			for s, n := range lens {
				for k := range n {
					e := Edge{Src: int32(s), Dst: int32(r.Intn(5)), Label: int32(r.Intn(3)), Rate: alphabet[0]}
					if s == row && k == at && where != "all zero" {
						timed = true
						e.Rate = alphabet[1+r.Intn(len(alphabet)-1)]
					} else if timed {
						e.Rate = alphabet[r.Intn(len(alphabet))]
					}
					if r.Intn(10) == 0 {
						e.Aux = int32(1 + r.Intn(3))
					}
					edges = append(edges, e)
				}
			}
			want := Build(states, edges)
			var rt RateTable
			byRate, byID := NewRowBuilder(), NewRowBuilderOver(want.Rates)
			next := 0
			for s := range states {
				for ; next < len(edges) && edges[next].Src == int32(s); next++ {
					e := edges[next]
					byRate.Add(e.Dst, e.Label, e.Aux, e.Rate)
					byID.AddID(e.Dst, e.Label, e.Aux, rt.Intern(&e.Rate))
				}
				byRate.EndRow()
				byID.EndRow()
			}
			if (want.RateID == nil) != (where == "all zero") {
				t.Fatalf("%s, trial %d: Build's RateID column is nil: %t", where, trial, want.RateID == nil)
			}
			for name, got := range map[string]CSR{"Add": byRate.CSR(), "AddID": byID.CSR()} {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, trial %d: RowBuilder through %s differs from Build (RateID nil: %t vs %t)",
						where, trial, name, got.RateID == nil, want.RateID == nil)
				}
			}
		}
	}
}

// TestRowSortMatchesSortStable compares EndRow's insertion sort with
// sort.Stable over the same rows: random rows of up to a few edges past
// shortRow, drawn from three labels and three destinations so that
// (label, dst) ties are common, with the rate id recording each edge's
// input position, and with and without an Aux column.
func TestRowSortMatchesSortStable(t *testing.T) {
	for _, withAux := range []bool{false, true} {
		r := rand.New(rand.NewSource(11))
		b := NewRowBuilder()
		var want CSR
		for row := 0; row < 3000; row++ {
			lo, n := len(want.Dst), r.Intn(shortRow+4)
			for k := range n {
				dst, label, aux := int32(r.Intn(3)), int32(r.Intn(3)), int32(0)
				if withAux {
					aux = int32(r.Intn(3))
				}
				b.AddID(dst, label, aux, int32(k))
				want.Dst = append(want.Dst, dst)
				want.Label = append(want.Label, label)
				want.RateID = append(want.RateID, int32(k))
				want.Aux = append(want.Aux, aux)
			}
			b.EndRow()
			sort.Stable(&rowView{c: &want, lo: lo, n: n})
		}
		if !withAux {
			want.Aux = nil
		}
		got := b.CSR()
		if !slices.Equal(got.Dst, want.Dst) || !slices.Equal(got.Label, want.Label) ||
			!slices.Equal(got.RateID, want.RateID) || !slices.Equal(got.Aux, want.Aux) {
			t.Fatalf("aux=%t: insertion-sorted rows differ from sort.Stable", withAux)
		}
	}
}

// TestRateInterningBitExact pins the rate table: ids in first-occurrence
// order, one entry per bit pattern (so +0 and -0 stay apart, a repeated
// NaN gets a single entry, and Slot or Priority alone separate rates),
// and the same table and ids from Build and from a RowBuilder.
func TestRateInterningBitExact(t *testing.T) {
	nan := rates.ExpRate(math.NaN())
	in := []rates.Rate{
		rates.ExpRate(2), rates.UntimedRate(), rates.ExpRate(2), rates.ExpRate(0),
		rates.ExpRate(math.Copysign(0, -1)), nan, nan, rates.UntimedRate(), nan,
		rates.Inf(1, 1), rates.Inf(2, 1), rates.PassiveWeight(1), rates.PassiveRate(),
		rates.ExpSlot(1, 2), rates.ExpRate(0),
	}
	wantTable := []rates.Rate{
		rates.ExpRate(2), rates.UntimedRate(), rates.ExpRate(0), rates.ExpRate(math.Copysign(0, -1)),
		nan, rates.Inf(1, 1), rates.Inf(2, 1), rates.PassiveRate(), rates.ExpSlot(1, 2),
	}
	wantIDs := []int32{0, 1, 0, 2, 3, 4, 4, 1, 4, 5, 6, 7, 7, 8, 2}
	bits := func(r rates.Rate) [5]uint64 {
		return [5]uint64{uint64(r.Kind), uint64(r.Slot), uint64(r.Priority),
			math.Float64bits(r.Lambda), math.Float64bits(r.Weight)}
	}
	// One edge per state keeps the edge order equal to the input order.
	edges := make([]Edge, len(in))
	b := NewRowBuilder()
	for i, r := range in {
		edges[i] = Edge{Src: int32(i), Dst: int32(i), Rate: r}
		b.Add(int32(i), 0, 0, r)
		b.EndRow()
	}
	for name, c := range map[string]CSR{"Build": Build(len(in), edges), "RowBuilder": b.CSR()} {
		if !slices.Equal(c.RateID, wantIDs) {
			t.Errorf("%s: rate ids %v, want %v", name, c.RateID, wantIDs)
		}
		if !slices.EqualFunc(c.Rates, wantTable, func(x, y rates.Rate) bool { return bits(x) == bits(y) }) {
			t.Errorf("%s: rate table %v, want %v", name, c.Rates, wantTable)
		}
		for i := range in {
			if bits(c.Rate(int32(i))) != bits(in[i]) {
				t.Errorf("%s: edge %d resolves to %+v, want %+v", name, i, c.Rate(int32(i)), in[i])
			}
		}
	}
}

// TestRateInterningUntimedSkipsIndex: a system whose edges all carry one
// rate (a functional model) is answered by the last-hit cache alone and
// never builds the hash index.
func TestRateInterningUntimedSkipsIndex(t *testing.T) {
	b := NewRowBuilder()
	for s := 0; s < 1000; s++ {
		for k := 0; k < 3; k++ {
			b.Add(int32(k), int32(k), 0, rates.UntimedRate())
		}
		b.EndRow()
	}
	if b.rt.index != nil || len(b.CSR().Rates) != 1 {
		t.Fatalf("untimed-only builder: index %v, table %v", b.rt.index, b.CSR().Rates)
	}
	b.Add(0, 0, 0, rates.ExpRate(1))
	b.Add(0, 0, 0, rates.UntimedRate())
	if got := b.CSR().RateID[3000:]; !slices.Equal(got, []int32{1, 0}) {
		t.Fatalf("ids after a second rate: %v, want [1 0]", got)
	}
}
