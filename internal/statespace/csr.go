package statespace

import (
	"sort"
	"unsafe"

	"repro/internal/rates"
)

// Edge is one transition in edge-list form, used while a system is being
// built; Build converts an edge list into CSR storage.
type Edge struct {
	// Src and Dst are state indices.
	Src, Dst int32
	// Label indexes the pipeline's Symbols table.
	Label int32
	// Aux is an opaque per-edge annotation handle (0 = none). The
	// compositional-minimization generator uses it to key folded reward
	// attributions; Build carries it into the CSR Aux column only when at
	// least one edge sets it, so plain systems pay nothing.
	Aux int32
	// Rate is the timing annotation.
	Rate rates.Rate
}

// CSR is compressed-sparse-row transition storage: the canonical form of
// an explicit transition system. Dst, Label and Rate are parallel arrays;
// the edges of state s occupy positions RowStart[s]..RowStart[s+1].
// Rows produced by Build are sorted by (Label, Dst); derived systems
// (hiding relabels in place) preserve the parent's within-row order, which
// is still deterministic. A CSR is immutable once built — derived systems
// share the arrays that they do not change.
type CSR struct {
	RowStart []int32
	Dst      []int32
	Label    []int32
	Rate     []rates.Rate
	// Aux is the per-edge annotation column (nil when no edge carries
	// one); parallel to Dst like Label and Rate.
	Aux []int32
}

// NumEdges returns the number of stored transitions.
func (c *CSR) NumEdges() int { return len(c.Dst) }

// Row returns the index range of state s's transitions.
func (c *CSR) Row(s int) (lo, hi int32) { return c.RowStart[s], c.RowStart[s+1] }

// SizeBytes returns the resident size of the CSR arrays in bytes — the
// memory the canonical transition storage pins, used by the capacity
// accounting of `dpmassess lts -stats` / `solve -stats`.
func (c *CSR) SizeBytes() int {
	const rateSize = int(unsafe.Sizeof(rates.Rate{}))
	return 4*(len(c.RowStart)+len(c.Dst)+len(c.Label)+len(c.Aux)) + rateSize*len(c.Rate)
}

// Build constructs canonical CSR storage over n states from an edge list:
// edges grouped by source, each row sorted by (label, destination) with
// insertion order breaking exact ties (the sort is stable), so the result
// is a pure function of the edge list.
func Build(n int, edges []Edge) CSR {
	c := CSR{
		RowStart: make([]int32, n+1),
		Dst:      make([]int32, len(edges)),
		Label:    make([]int32, len(edges)),
		Rate:     make([]rates.Rate, len(edges)),
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
		c.Rate[i] = e.Rate
		if hasAux {
			c.Aux[i] = e.Aux
		}
	}
	return c
}

// RowBuilder assembles CSR storage row by row, for producers that emit
// every edge of state 0, then of state 1, and so on (a breadth-first
// generator expands its states in identifier order). EndRow sorts the
// finished row in place by (label, destination), stably, so the result
// equals Build over the same edges in the same order — without Build's
// intermediate edge list and global sort.
type RowBuilder struct {
	c   CSR
	row rowView
}

// NewRowBuilder returns a builder positioned at row 0.
func NewRowBuilder() *RowBuilder {
	b := &RowBuilder{c: CSR{RowStart: []int32{0}}}
	b.row.c = &b.c
	return b
}

// Add appends an edge to the current row. The Aux column materializes on
// the first non-zero annotation, as in Build.
func (b *RowBuilder) Add(dst, label, aux int32, r rates.Rate) {
	if len(b.c.Dst) == cap(b.c.Dst) {
		b.grow()
	}
	b.c.Dst = append(b.c.Dst, dst)
	b.c.Label = append(b.c.Label, label)
	b.c.Rate = append(b.c.Rate, r)
	if aux != 0 && b.c.Aux == nil {
		b.c.Aux = make([]int32, len(b.c.Dst)-1, cap(b.c.Dst))
	}
	if b.c.Aux != nil {
		b.c.Aux = append(b.c.Aux, aux)
	}
}

// grow doubles the capacity of every edge column at once: append alone
// grows large slices by 1.25×, which would copy the 40-byte Rate column
// several times over on a large system.
func (b *RowBuilder) grow() {
	n := max(1024, 2*cap(b.c.Dst))
	b.c.Dst = append(make([]int32, 0, n), b.c.Dst...)
	b.c.Label = append(make([]int32, 0, n), b.c.Label...)
	b.c.Rate = append(make([]rates.Rate, 0, n), b.c.Rate...)
	if b.c.Aux != nil {
		b.c.Aux = append(make([]int32, 0, n), b.c.Aux...)
	}
}

// EndRow closes the current row, sorting it canonically.
func (b *RowBuilder) EndRow() {
	b.row.lo = int(b.c.RowStart[len(b.c.RowStart)-1])
	b.row.n = len(b.c.Dst) - b.row.lo
	sort.Stable(&b.row)
	b.c.RowStart = append(b.c.RowStart, int32(len(b.c.Dst)))
}

// CSR returns the assembled storage; its row count is the number of
// EndRow calls.
func (b *RowBuilder) CSR() CSR { return b.c }

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
	c.Rate[i], c.Rate[j] = c.Rate[j], c.Rate[i]
	if c.Aux != nil {
		c.Aux[i], c.Aux[j] = c.Aux[j], c.Aux[i]
	}
}
