package bisim

import (
	"cmp"
	"slices"

	"repro/internal/lts"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// Minimize returns the quotient of the LTS by its bisimulation partition:
// one state per block, transitions lifted from all members and
// deduplicated by (label, destination block). Rates are carried over from
// the first occurrence; minimization is intended for functional models.
func Minimize(l *lts.LTS, rel Relation) *lts.LTS {
	blocks := Partition(l, rel)
	numBlocks := 0
	for _, b := range blocks {
		numBlocks = max(numBlocks, b+1)
	}
	// A counting sort lines the states up by block, each block's members
	// in ascending order, so a block's lifted edges are gathered in the
	// system's edge order.
	start := make([]int32, numBlocks+1)
	for _, b := range blocks {
		start[b+1]++
	}
	for b := 1; b <= numBlocks; b++ {
		start[b] += start[b-1]
	}
	members := make([]int32, l.NumStates)
	for s, b := range blocks {
		members[start[b]] = int32(s)
		start[b]++
	}
	type lifted struct {
		label, dst int32
		rate       rates.Rate
	}
	var row []lifted
	// The quotient shares the pipeline symbol table: label indices copy
	// over verbatim.
	rows := statespace.NewRowBuilder()
	lo := int32(0)
	for b := range int32(numBlocks) {
		row = row[:0]
		for _, s := range members[lo:start[b]] {
			sp := l.Out(int(s))
			for k, label := range sp.Label {
				d := int32(blocks[sp.Dst[k]])
				if rel == Weak && label == lts.TauIndex && d == b {
					// Tau self-loops are redundant up to weak bisimulation.
					continue
				}
				row = append(row, lifted{label: label, dst: d, rate: sp.Rate(k)})
			}
		}
		lo = start[b]
		// The stable sort keeps each (label, destination) pair's first
		// occurrence first.
		slices.SortStableFunc(row, func(x, y lifted) int {
			return cmp.Or(cmp.Compare(x.label, y.label), cmp.Compare(x.dst, y.dst))
		})
		for i, e := range row {
			if i == 0 || e.label != row[i-1].label || e.dst != row[i-1].dst {
				rows.Add(e.dst, e.label, 0, e.rate)
			}
		}
		rows.EndRow()
	}
	return lts.New(l.Symbols(), blocks[l.Initial], rows.CSR())
}
