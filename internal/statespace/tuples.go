package statespace

import "slices"

// TupleTable assigns dense uint32 identifiers to fixed-width tuples of
// uint32 words (global states as tuples of local ids). Tuples are stored
// in place, back to back in one word slab, and located through an
// open-addressing hash table over a word-wise hash, so a hit costs one
// hash, a short probe chain and a word comparison — no byte encoding, no
// allocation. Identifiers are assigned in first-intern order.
//
// Like Interner, a TupleTable is single-writer: each generation, fold
// memo and simulation runner owns its tables.
type TupleTable struct {
	width int
	slab  []uint32 // tuple id is slab[id*width : (id+1)*width]
	table []uint32 // open addressing; 0 = empty, otherwise id+1
	mask  uint32
	n     int
}

// NewTupleTable returns an empty table of tuples of the given width
// (at least 1).
func NewTupleTable(width int) *TupleTable {
	if width < 1 {
		panic("statespace: tuple width must be positive")
	}
	const initialSlots = 1024 // power of two
	return &TupleTable{
		width: width,
		table: make([]uint32, initialSlots),
		mask:  initialSlots - 1,
	}
}

// Len returns the number of interned tuples.
func (t *TupleTable) Len() int { return t.n }

// Tuple returns the stored tuple of an identifier. The slice aliases the
// slab and must not be modified; it stays valid (and unchanged) across
// later Intern calls, which never rewrite a stored tuple, but not across
// Reset.
func (t *TupleTable) Tuple(id uint32) []uint32 {
	lo := int(id) * t.width
	return t.slab[lo : lo+t.width : lo+t.width]
}

// Tuples returns every stored tuple, back to back in identifier order:
// tuple id is the slice's words [id·width, (id+1)·width). The slice
// aliases the slab, with its spare capacity, and must not be modified.
// Holding it keeps the tuples without the hash index, which is what a
// finished state space needs for its descriptions.
func (t *TupleTable) Tuples() []uint32 { return t.slab }

// hashTuple mixes the words of v into a 32-bit hash whose low bits (the
// ones the table masks) depend on every bit of every word. Each
// (position, word) pair is mixed on its own and the mixes are summed, so
// the multiplies of one tuple overlap instead of forming a dependent
// chain; one more multiply-xorshift spreads the sum.
func hashTuple(v []uint32) uint32 {
	var h uint64
	for i, w := range v {
		x := (uint64(i)<<32 | uint64(w)) * 0x9E3779B97F4A7C15
		h += x ^ x>>32
	}
	h *= 0xBF58476D1CE4E5B9
	return uint32(h ^ h>>32)
}

// equal reports whether stored tuple id equals v.
func (t *TupleTable) equal(id uint32, v []uint32) bool {
	lo := int(id) * t.width
	s := t.slab[lo : lo+len(v)]
	for i, w := range v {
		if s[i] != w {
			return false
		}
	}
	return true
}

// Intern returns the identifier of v, assigning the next free one when
// the tuple is new (fresh reports which). The words are copied into the
// slab, so the caller may reuse v. len(v) must equal the table's width.
func (t *TupleTable) Intern(v []uint32) (id uint32, fresh bool) {
	if len(v) != t.width {
		panic("statespace: tuple width mismatch")
	}
	i := hashTuple(v) & t.mask
	for {
		e := t.table[i]
		if e == 0 {
			id = uint32(t.n)
			if len(t.slab)+t.width > cap(t.slab) {
				// Double the slab (append alone grows large slices by
				// 1.25×, copying the whole state table several times).
				t.slab = slices.Grow(t.slab, max(t.width, cap(t.slab)))
			}
			t.slab = append(t.slab, v...)
			t.n++
			t.table[i] = id + 1
			if 2*uint64(t.n) >= uint64(len(t.table)) {
				t.grow()
			}
			return id, true
		}
		if t.equal(e-1, v) {
			return e - 1, false
		}
		i = (i + 1) & t.mask
	}
}

// Reset empties the table, keeping its storage for reuse. Identifiers and
// tuples handed out before the reset are invalid afterwards.
func (t *TupleTable) Reset() {
	t.slab = t.slab[:0]
	clear(t.table)
	t.n = 0
}

// grow doubles the hash table and rehashes every stored tuple.
func (t *TupleTable) grow() {
	next := make([]uint32, 2*len(t.table))
	mask := uint32(len(next) - 1)
	for id := 0; id < t.n; id++ {
		i := hashTuple(t.Tuple(uint32(id))) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = uint32(id) + 1
	}
	t.table = next
	t.mask = mask
}
