package lts

// WithFoldMemoLimitForTest returns a copy of o whose fold memo resets
// whenever it holds limit tuples before a source state is folded.
func WithFoldMemoLimitForTest(o FoldOptions, limit int) *FoldOptions {
	o.memoLimit = limit
	return &o
}

// ReferenceRestrictForTest exposes referenceRestrict to the external
// tests that need the paper models.
func ReferenceRestrictForTest(l *LTS, match func(string) bool) *LTS {
	return referenceRestrict(l, match)
}

// DiffSystemsForTest exposes diffSystems to the external tests.
func DiffSystemsForTest(got, want *LTS) string { return diffSystems(got, want) }
