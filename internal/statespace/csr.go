package statespace

import (
	"math"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/rates"
)

// CSR is compressed-sparse-row transition storage: the canonical form of
// an explicit transition system. Dst, Label and RateID are parallel arrays;
// the edges of state s occupy positions RowStart[s]..RowStart[s+1]. Edge
// i's timing annotation is Rates[RateID[i]]: a system carries few distinct
// rates, so each edge stores a 4-byte id into a per-system table instead
// of a 40-byte rates.Rate. RateID is nil when every edge uses id 0 — a
// functional model, whose only rate is Untimed — so such a system costs
// 8 bytes an edge instead of 12; readers take a nil column as id 0.
// A RowBuilder is the one constructor: its rows are sorted by (Label,
// Dst), stably. Derived systems (hiding relabels in place) preserve the
// parent's within-row order, which is still deterministic. A CSR is
// immutable once built — derived systems share the arrays that they do
// not change, the rate table included.
type CSR struct {
	RowStart []int32
	Dst      []int32
	Label    []int32
	RateID   []int32
	// Rates is the rate table RateID indexes: the distinct annotations in
	// first-occurrence order of the producer's edges (see RateTable). A
	// derived system may share a parent's table and use only part of it.
	Rates []rates.Rate
	// Aux is the per-edge annotation column (nil when no edge carries
	// one); parallel to Dst like Label and a non-nil RateID.
	Aux []int32
}

// NumEdges returns the number of stored transitions.
func (c *CSR) NumEdges() int { return len(c.Dst) }

// Row returns the index range of state s's transitions.
func (c *CSR) Row(s int) (lo, hi int32) { return c.RowStart[s], c.RowStart[s+1] }

// SizeBytes returns the resident size of the CSR arrays in bytes — the
// memory the canonical transition storage pins, used by the capacity
// accounting of `dpmassess lts -stats` / `solve -stats`. It counts the
// rate table too, even when a derived system shares it.
func (c *CSR) SizeBytes() int {
	const rateSize = int(unsafe.Sizeof(rates.Rate{}))
	return 4*(len(c.RowStart)+len(c.Dst)+len(c.Label)+len(c.RateID)+len(c.Aux)) + rateSize*len(c.Rates)
}

// RateTable interns rates into dense ids in first-occurrence order. Two
// rates share an id only when they are bit-identical — Kind, Slot,
// Priority and the IEEE bits of Lambda and Weight — so +0 and -0 stay
// apart and a NaN rate gets one entry, not one per edge. A one-entry
// last-hit cache answers runs of equal rates (every edge of a functional
// model) without a hash; the open-addressing index behind it is only
// built once a second distinct rate appears. The zero value is an empty
// table.
type RateTable struct {
	table []rates.Rate // id i is table[i]
	index []int32      // hash slots holding id+1, 0 = empty; len a power of two
	last  int32        // id returned by the previous intern
}

// Rates returns the table: id i is element i. The slice aliases the
// table and must not be modified.
func (t *RateTable) Rates() []rates.Rate { return t.table }

// sameBits reports whether two rates are bit-identical.
func sameBits(a, b *rates.Rate) bool {
	return a.Kind == b.Kind && a.Slot == b.Slot && a.Priority == b.Priority &&
		math.Float64bits(a.Lambda) == math.Float64bits(b.Lambda) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
}

// hashBits mixes the fields sameBits compares.
func hashBits(r *rates.Rate) uint64 {
	h := math.Float64bits(r.Lambda)*0x9e3779b97f4a7c15 ^ math.Float64bits(r.Weight)
	h = (h ^ uint64(r.Kind)<<56 ^ uint64(r.Slot)<<32 ^ uint64(r.Priority)) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// Intern returns the id of r, adding it to the table if new.
func (t *RateTable) Intern(r *rates.Rate) int32 {
	if len(t.table) > 0 && sameBits(r, &t.table[t.last]) {
		return t.last
	}
	t.last = t.find(r)
	return t.last
}

// find is Intern past the last-hit cache.
func (t *RateTable) find(r *rates.Rate) int32 {
	if len(t.table) <= 1 {
		// The cache held the only entry, so r is new.
		t.table = append(t.table, *r)
		if len(t.table) == 2 {
			t.rehash(8)
		}
		return int32(len(t.table) - 1)
	}
	mask := uint64(len(t.index) - 1)
	for i := hashBits(r) & mask; ; i = (i + 1) & mask {
		slot := t.index[i]
		if slot == 0 {
			id := int32(len(t.table))
			t.table = append(t.table, *r)
			t.index[i] = id + 1
			if 2*len(t.table) > len(t.index) {
				t.rehash(2 * len(t.index))
			}
			return id
		}
		if sameBits(r, &t.table[slot-1]) {
			return slot - 1
		}
	}
}

// rehash rebuilds the index with n slots over every table entry.
func (t *RateTable) rehash(n int) {
	t.index = make([]int32, n)
	mask := uint64(n - 1)
	for id := range t.table {
		i := hashBits(&t.table[id]) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = int32(id) + 1
	}
}

// RowBuilder assembles CSR storage row by row, for producers that emit
// every edge of state 0, then of state 1, and so on (a breadth-first
// generator expands its states in identifier order). EndRow sorts the
// finished row in place by (label, destination), stably, so the result is
// a pure function of the edges added and their order, with no
// intermediate edge list and no global sort. A producer whose edges come
// out of row order groups them by source first.
type RowBuilder struct {
	c   CSR
	rt  RateTable
	row rowView
}

// NewRowBuilder returns a builder positioned at row 0 that interns the
// rates passed to Add into a fresh table.
func NewRowBuilder() *RowBuilder {
	b := &RowBuilder{c: CSR{RowStart: []int32{0}}}
	b.row.c = &b.c
	return b
}

// NewRowBuilderOver returns a builder positioned at row 0 whose edges
// index an existing rate table — a derived system reusing its parent's
// rate ids. Edges are added with AddID; Add must not be used.
func NewRowBuilderOver(table []rates.Rate) *RowBuilder {
	b := NewRowBuilder()
	b.rt.table = table
	return b
}

// Add appends an edge to the current row, interning its rate.
func (b *RowBuilder) Add(dst, label, aux int32, r rates.Rate) {
	b.AddID(dst, label, aux, b.rt.Intern(&r))
}

// InternRate returns the id of r in the builder's rate table, adding it
// if new, for a producer that maps its own rate ids to the table's on
// first use and then adds edges with AddID. The table stays in
// first-use order when each rate is interned just before its first edge.
func (b *RowBuilder) InternRate(r *rates.Rate) int32 { return b.rt.Intern(r) }

// AddID appends an edge whose rate is the table entry rateID. The RateID
// column materializes on the first non-zero id, zero-filled for the edges
// before it, and the Aux column on the first non-zero annotation, so a
// builder whose edges all use rate 0 and no annotation stores two
// columns.
func (b *RowBuilder) AddID(dst, label, aux, rateID int32) {
	if len(b.c.Dst) == cap(b.c.Dst) {
		b.grow()
	}
	b.c.Dst = append(b.c.Dst, dst)
	b.c.Label = append(b.c.Label, label)
	if rateID != 0 && b.c.RateID == nil {
		b.c.RateID = make([]int32, len(b.c.Dst)-1, cap(b.c.Dst))
	}
	if b.c.RateID != nil {
		b.c.RateID = append(b.c.RateID, rateID)
	}
	if aux != 0 && b.c.Aux == nil {
		b.c.Aux = make([]int32, len(b.c.Dst)-1, cap(b.c.Dst))
	}
	if b.c.Aux != nil {
		b.c.Aux = append(b.c.Aux, aux)
	}
}

// grow doubles the capacity of every edge column at once: append alone
// grows large slices by 1.25× and would reallocate each column on its
// own schedule.
func (b *RowBuilder) grow() {
	n := max(1024, cap(b.c.Dst))
	b.c.Dst = slices.Grow(b.c.Dst, n)
	b.c.Label = slices.Grow(b.c.Label, n)
	if b.c.RateID != nil {
		b.c.RateID = slices.Grow(b.c.RateID, n)
	}
	if b.c.Aux != nil {
		b.c.Aux = slices.Grow(b.c.Aux, n)
	}
}

// Reserve makes room for rows more rows and edges more edges, each column
// allocated once at exactly that size, for a producer that knows its
// final size: a builder filled to its reservation ends with every column
// full (len == cap), and a column that materializes later takes the edge
// columns' capacity.
func (b *RowBuilder) Reserve(rows, edges int) {
	b.c.RowStart = reserve(b.c.RowStart, rows)
	b.c.Dst = reserve(b.c.Dst, edges)
	b.c.Label = reserve(b.c.Label, edges)
	if b.c.RateID != nil {
		b.c.RateID = reserve(b.c.RateID, edges)
	}
	if b.c.Aux != nil {
		b.c.Aux = reserve(b.c.Aux, edges)
	}
}

// reserve returns s with room for n more elements; a reallocation has
// exactly that capacity, where slices.Grow would round it up to a size
// class.
func reserve(s []int32, n int) []int32 {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]int32, len(s), len(s)+n)
	copy(out, s)
	return out
}

// shortRow is the longest row EndRow sorts by insertion; longer rows go
// through sort.Stable.
const shortRow = 16

// EndRow closes the current row, sorting it canonically.
func (b *RowBuilder) EndRow() {
	lo, hi := int(b.c.RowStart[len(b.c.RowStart)-1]), len(b.c.Dst)
	if hi-lo <= shortRow {
		b.insertionSort(lo, hi)
	} else {
		b.row.lo, b.row.n = lo, hi-lo
		sort.Stable(&b.row)
	}
	if len(b.c.RowStart) == cap(b.c.RowStart) {
		// Double, as grow does for the edge columns.
		b.c.RowStart = slices.Grow(b.c.RowStart, max(1024, cap(b.c.RowStart)))
	}
	b.c.RowStart = append(b.c.RowStart, int32(hi))
}

// insertionSort sorts edges lo..hi by (label, destination), stably,
// moving every column with them.
func (b *RowBuilder) insertionSort(lo, hi int) {
	dst, label := b.c.Dst[lo:hi], b.c.Label[lo:hi]
	var rid, aux []int32
	if b.c.RateID != nil {
		rid = b.c.RateID[lo:hi]
	}
	if b.c.Aux != nil {
		aux = b.c.Aux[lo:hi]
	}
	for i := 1; i < len(dst); i++ {
		d, l := dst[i], label[i]
		var r, a int32
		if rid != nil {
			r = rid[i]
		}
		if aux != nil {
			a = aux[i]
		}
		j := i
		for ; j > 0 && (label[j-1] > l || label[j-1] == l && dst[j-1] > d); j-- {
			dst[j], label[j] = dst[j-1], label[j-1]
			if rid != nil {
				rid[j] = rid[j-1]
			}
			if aux != nil {
				aux[j] = aux[j-1]
			}
		}
		dst[j], label[j] = d, l
		if rid != nil {
			rid[j] = r
		}
		if aux != nil {
			aux[j] = a
		}
	}
}

// CSR returns the assembled storage; its row count is the number of
// EndRow calls.
func (b *RowBuilder) CSR() CSR {
	c := b.c
	c.Rates = b.rt.table
	return c
}

// rowView is one CSR row as a sort.Interface over all edge columns.
type rowView struct {
	c     *CSR
	lo, n int
}

func (v *rowView) Len() int { return v.n }

func (v *rowView) Less(i, j int) bool {
	i, j = v.lo+i, v.lo+j
	if v.c.Label[i] != v.c.Label[j] {
		return v.c.Label[i] < v.c.Label[j]
	}
	return v.c.Dst[i] < v.c.Dst[j]
}

func (v *rowView) Swap(i, j int) {
	i, j = v.lo+i, v.lo+j
	c := v.c
	c.Dst[i], c.Dst[j] = c.Dst[j], c.Dst[i]
	c.Label[i], c.Label[j] = c.Label[j], c.Label[i]
	if c.RateID != nil {
		c.RateID[i], c.RateID[j] = c.RateID[j], c.RateID[i]
	}
	if c.Aux != nil {
		c.Aux[i], c.Aux[j] = c.Aux[j], c.Aux[i]
	}
}
