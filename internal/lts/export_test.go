package lts

import "repro/internal/rates"

// Edges calls fn for every transition in canonical order.
func (l *LTS) Edges(fn func(src, dst, label int, r rates.Rate)) {
	for s := 0; s < l.NumStates; s++ {
		sp := l.Out(s)
		for k := range sp.Len() {
			fn(s, int(sp.Dst[k]), int(sp.Label[k]), sp.Rate(k))
		}
	}
}

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
	n := l.NumRateSlots()
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	// Loop over the edges, not the RateID column, which is nil when every
	// edge has the table's first rate.
	l.Edges(func(_, _, _ int, r rates.Rate) {
		if r.Slot > 0 {
			out[r.Slot-1] = r.Lambda
		}
	})
	return out
}

// WithHashIndexForTest returns a copy of o whose unfolded generation
// interns its states through the hash index instead of the direct one.
func WithHashIndexForTest(o GenerateOptions) GenerateOptions {
	o.hashIndex = true
	return o
}
