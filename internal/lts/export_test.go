package lts

// ReferenceRestrictForTest exposes referenceRestrict to the external
// tests that need the paper models.
func ReferenceRestrictForTest(l *LTS, match func(string) bool) *LTS {
	return referenceRestrict(l, match)
}

// DiffSystemsForTest exposes diffSystems to the external tests.
func DiffSystemsForTest(got, want *LTS) string { return diffSystems(got, want) }

// SlotDefaults returns the rate values the system's edges were elaborated
// with, indexed by slot (element k-1 is slot k's Lambda): the rate point
// at which BindSlotsForTest leaves every rate as it was. It returns nil
// when the system carries no rate slots.
func (l *LTS) SlotDefaults() []float64 {
	l.Seal()
	n := l.NumRateSlots()
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	// Loop over the edges, not the RateID column, which is nil when every
	// edge has the table's first rate.
	for i := range int32(l.csr.NumEdges()) {
		if r := l.csr.Rate(i); r.Slot > 0 {
			out[r.Slot-1] = r.Lambda
		}
	}
	return out
}

// WithHashIndexForTest returns a copy of o whose unfolded generation
// interns its states through the hash index instead of the direct one.
func WithHashIndexForTest(o GenerateOptions) GenerateOptions {
	o.hashIndex = true
	return o
}
