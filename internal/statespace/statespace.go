// Package statespace provides the compact, interned state-space
// representation shared by the whole analysis pipeline: an arena-backed
// state interner that maps canonical byte encodings of global states to
// dense uint32 identifiers (internal/elab produces the encodings,
// internal/lts and internal/sim consume the identifiers), an append-only
// label symbol table shared by an LTS and every system derived from it by
// hiding, restriction or minimization, and CSR (compressed sparse row)
// transition storage that is the canonical form of an explicit transition
// system.
//
// Invariants:
//
//   - Interner identifiers are assigned in first-intern order, so a
//     deterministic exploration (BFS in internal/lts) yields the same
//     identifier for the same state on every run.
//   - Symbols index 0 is always the invisible action "tau".
//   - CSR edges are grouped by source row, and a RowBuilder sorts each
//     row stably by (label, destination), so every float accumulation
//     downstream visits transitions in a reproducible order.
package statespace

// TauIndex is the symbol-table index reserved for the invisible action.
const TauIndex = 0

// TauName is the display name of the invisible action.
const TauName = "tau"

// Symbols is an append-only interned label table. Index 0 is always the
// invisible action. A Symbols instance is shared by an LTS and all its
// derived systems (hide/restrict/minimize copies), so a label keeps one
// index across a whole pipeline instead of being re-interned per copy.
// It is not synchronized: interning is single-writer (the goroutine that
// owns the pipeline); concurrent pipelines use separate instances.
type Symbols struct {
	names []string
	idx   map[string]int
}

// NewSymbols returns a table holding only the invisible action.
func NewSymbols() *Symbols {
	return &Symbols{
		names: []string{TauName},
		idx:   map[string]int{TauName: TauIndex},
	}
}

// Intern returns the index of name, adding it if needed.
func (t *Symbols) Intern(name string) int {
	if i, ok := t.idx[name]; ok {
		return i
	}
	i := len(t.names)
	t.names = append(t.names, name)
	t.idx[name] = i
	return i
}

// Lookup returns the index of name, if present.
func (t *Symbols) Lookup(name string) (int, bool) {
	i, ok := t.idx[name]
	return i, ok
}

// Name returns the label at index i.
func (t *Symbols) Name(i int) string { return t.names[i] }

// Len returns the number of interned labels.
func (t *Symbols) Len() int { return len(t.names) }
