package lts

// WithFoldMemoLimitForTest returns a copy of o whose fold memo resets
// whenever it holds limit tuples before a source state is folded.
func WithFoldMemoLimitForTest(o FoldOptions, limit int) *FoldOptions {
	o.memoLimit = limit
	return &o
}
