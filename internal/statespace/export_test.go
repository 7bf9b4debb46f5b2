package statespace

// ProbeStats returns the mean and the longest probe sequence that finds a
// stored tuple, over every tuple in the table, and the table's load.
func (t *TupleTable) ProbeStats() (mean float64, longest int, load float64) {
	total := 0
	for id := range t.n {
		i := hashTuple(t.Tuple(uint32(id))) & t.mask
		probes := 1
		for t.table[i] != uint32(id)+1 {
			i = (i + 1) & t.mask
			probes++
		}
		total += probes
		longest = max(longest, probes)
	}
	return float64(total) / float64(t.n), longest, float64(t.n) / float64(len(t.table))
}

// Lookup returns the identifier of v without interning it.
func (t *TupleTable) Lookup(v []uint32) (uint32, bool) {
	if len(v) != t.width {
		return 0, false
	}
	i := hashTuple(v) & t.mask
	for {
		e := t.table[i]
		if e == 0 {
			return 0, false
		}
		if t.equal(e-1, v) {
			return e - 1, true
		}
		i = (i + 1) & t.mask
	}
}
