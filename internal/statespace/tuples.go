package statespace

import (
	"math"
	"math/bits"
)

// TupleTable assigns dense uint32 identifiers to fixed-width tuples of
// uint32 words (global states as tuples of local ids). Tuples are stored
// in place, back to back in pages that never move, and located through
// one of two indexes over those pages; identifiers are assigned in
// first-intern order whichever index finds them, so the index never
// shows in an id.
//
//   - The hash index (NewTupleTable) is an open-addressing table over a
//     word-wise hash: a hit costs one hash, a short probe chain and a word
//     comparison — no byte encoding, no allocation.
//   - The direct index (NewDirectTupleTable) reads a tuple as a
//     mixed-radix number, whose digit at position i is below the radix of
//     i (the largest word stored there, plus one), and keeps id+1 in the
//     slot of that number: a hit is one multiply-add per position and one
//     load. It suits a reachable set that fills most of the product of its
//     per-position ranges. It holds at most maxSlotsPerState slots per
//     stored tuple plus slotFloor, and re-indexes at most
//     maxReindexPerState stored tuples per stored tuple plus reindexFloor;
//     a tuple that would take it past either bound moves the table to the
//     hash index for good.
//
// The first pages double in size, from firstPageTuples tuples up to
// pageTuples, and every later page holds pageTuples: a small table costs
// little, and a large one never copies a stored tuple, where a doubling
// slab copies the whole table at every doubling and drops the old copy.
//
// Like Interner, a TupleTable is single-writer: each generation, fold
// memo and simulation runner owns its tables.
type TupleTable struct {
	width int
	// pages[p] holds the tuples pageOf maps to page p, width words each;
	// Reset keeps every page for reuse.
	pages [][]uint32
	// table is the index; in a slot, 0 = empty, otherwise id+1. Hashing,
	// it is open addressing over a power-of-two length; direct, v's slot
	// is table[Σ v[i]·stride[i]].
	table []uint32
	mask  uint32
	// The direct index's digits, nil when the table hashes: position i's
	// radix (the largest word stored there, plus one) and its stride (the
	// product of the radices before it).
	radix, stride []uint32
	reindexed     int // tuples the direct index re-indexed since Reset
	n             int
}

const (
	// initialSlots is both indexes' first table length (a power of two).
	initialSlots = 1024
	// The direct index's buffer is the smallest power of two, from
	// initialSlots up, that holds the product of the radices, and it
	// holds at most maxSlotsPerState slots per stored tuple plus
	// slotFloor. A finished unfolded reachable set fills the product
	// densely: 1.6 slots per state on the functional and full-Markovian
	// streaming shapes, 3.5 on rpc. The fold memo, the folded state table
	// and the simulator's keys took 9–48 when a prototype indexed them
	// directly, which is why they hash. Early in a breadth-first search
	// the buffer runs higher per state: on the streaming shapes 8,192
	// slots at 309 states and 16,384 at 880, which the bound admits (9,040
	// and 18,176).
	maxSlotsPerState = 16
	slotFloor        = 4096
	// Raising a radix re-indexes every stored tuple, so a set whose local
	// ids keep arriving one at a time (one instance alone, or a long
	// buffer filling up) would cost quadratic work. The direct index
	// re-indexes at most maxReindexPerState tuples per stored tuple plus
	// reindexFloor. A breadth-first search over a product meets its local
	// ids early: the unfolded generations of the specs, both paper models
	// and the full-Markovian streaming shapes up to 16×16 (and, until the
	// slot bound moves them to hashing, 20×20, 4×30 and 30×4) never come
	// within 52,000 re-indexed tuples of this bound; at 4 per tuple the
	// 16×16 shape would need a floor of 84,527.
	maxReindexPerState = 8
	reindexFloor       = 1 << 16

	// Page p below growingPages holds firstPageTuples<<p tuples, and
	// every later page pageTuples (= firstPageTuples<<growingPages).
	// A simulation runner keeps a few hundred states, which the growing
	// pages hold in about the words a doubling slab would take; fixed
	// pageTuples pages allocated 5% more bytes on the simulator's
	// workload.
	firstPageShift  = 4
	firstPageTuples = 1 << firstPageShift
	pageShift       = 9
	pageTuples      = 1 << pageShift
	growingPages    = pageShift - firstPageShift
)

// NewTupleTable returns an empty hash-indexed table of tuples of the
// given width (at least 1).
func NewTupleTable(width int) *TupleTable {
	if width < 1 {
		panic("statespace: tuple width must be positive")
	}
	return &TupleTable{
		width: width,
		table: make([]uint32, initialSlots),
		mask:  initialSlots - 1,
	}
}

// NewDirectTupleTable returns an empty direct-indexed table of tuples of
// the given width (at least 1), for tuple sets that are dense in the
// product of their per-position ranges, such as a breadth-first search's
// reachable states. It falls back to hashing when the set is sparse.
func NewDirectTupleTable(width int) *TupleTable {
	if width < 1 {
		panic("statespace: tuple width must be positive")
	}
	digits := make([]uint32, 2*width)
	return &TupleTable{
		width:  width,
		radix:  digits[:width:width],
		stride: digits[width:],
	}
}

// Len returns the number of interned tuples.
func (t *TupleTable) Len() int { return t.n }

// pageOf returns the page that holds tuple id and the tuple's index in
// that page. From x = pageTuples on, a shift and a mask find it; below,
// page p holds x in [firstPageTuples<<p, firstPageTuples<<(p+1)), so p is
// the bit length of x>>(firstPageShift+1). A large table's ids take the
// first branch; it costs a compare where the bit length's BSR, clamped,
// took 13% of a hash-probe microbenchmark.
func pageOf(id uint32) (page, index uint32) {
	x := id + firstPageTuples
	if x >= pageTuples {
		return x>>pageShift + (growingPages - 1), x & (pageTuples - 1)
	}
	p := uint32(bits.Len32(x >> (firstPageShift + 1)))
	return p, x - firstPageTuples<<p
}

// Tuple returns the stored tuple of an identifier. The slice aliases a
// page and must not be modified; it stays valid (and unchanged) across
// later Intern calls, which never move or rewrite a stored tuple, but not
// across Reset.
func (t *TupleTable) Tuple(id uint32) []uint32 {
	p, i := pageOf(id)
	lo := int(i) * t.width
	return t.pages[p][lo : lo+t.width : lo+t.width]
}

// SizeBytes returns the bytes of the table's pages: every page it has
// allocated, in use or kept by Reset. The index is not counted.
func (t *TupleTable) SizeBytes() int {
	words := 0
	for _, page := range t.pages {
		words += len(page)
	}
	return 4 * words
}

// DropIndex releases the index, keeping the tuples: Len, Tuple and
// SizeBytes still answer, and Intern and Reset must not be called again.
// A finished state space keeps its table this way, for descriptions.
func (t *TupleTable) DropIndex() {
	t.table, t.radix, t.stride = nil, nil, nil
}

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

// equal reports whether stored tuple id equals v. It finds the page
// itself: through Tuple it would cost more than the inliner allows, and
// the hash index's hit path calls it on every probe.
func (t *TupleTable) equal(id uint32, v []uint32) bool {
	p, k := pageOf(id)
	s := t.pages[p][int(k)*len(v):]
	for i, w := range v {
		if s[i] != w {
			return false
		}
	}
	return true
}

// Intern returns the identifier of v, assigning the next free one when
// the tuple is new (fresh reports which). The words are copied into a
// page, so the caller may reuse v. len(v) must equal the table's width.
func (t *TupleTable) Intern(v []uint32) (id uint32, fresh bool) {
	if len(v) != t.width {
		panic("statespace: tuple width mismatch")
	}
	if t.radix != nil {
		radix, stride := t.radix[:len(v)], t.stride[:len(v)]
		slot := 0
		for i, w := range v {
			if w >= radix[i] {
				return t.widen(v), true
			}
			slot += int(w) * int(stride[i])
		}
		if e := t.table[slot]; e != 0 {
			return e - 1, false
		}
		id = t.store(v)
		t.table[slot] = id + 1
		return id, true
	}
	i := hashTuple(v) & t.mask
	for {
		e := t.table[i]
		if e == 0 {
			id = t.store(v)
			t.table[i] = id + 1
			if 2*uint64(t.n) >= uint64(len(t.table)) {
				t.rehash(2 * len(t.table))
			}
			return id, true
		}
		if t.equal(e-1, v) {
			return e - 1, false
		}
		i = (i + 1) & t.mask
	}
}

// store copies v into the next identifier's page slot and returns the
// identifier.
func (t *TupleTable) store(v []uint32) uint32 {
	id := uint32(t.n)
	p, i := pageOf(id)
	if int(p) == len(t.pages) {
		tuples := firstPageTuples << min(p, growingPages)
		t.pages = append(t.pages, make([]uint32, tuples*t.width))
	}
	copy(t.pages[p][int(i)*t.width:], v)
	t.n++
	return id
}

// widen interns v, a fresh tuple with a word at or beyond its position's
// radix. It raises those radices and re-indexes every stored tuple under
// the new strides, in a buffer of power-of-two capacity that doubles as
// the product of the radices outgrows it. When that buffer or the tuples
// re-indexed since Reset would exceed their bound, the table moves to the
// hash index instead. (A buffer kept across Reset may be larger than the
// slot bound; it is reused, not counted against it.)
func (t *TupleTable) widen(v []uint32) uint32 {
	t.reindexed += t.n
	if t.reindexed > maxReindexPerState*(t.n+1)+reindexFloor {
		return t.fallBack(v)
	}
	// Strides are words, so the bound also keeps the product below 2^32.
	limit := min(uint64(maxSlotsPerState)*uint64(t.n+1)+slotFloor, math.MaxUint32)
	product := uint64(1)
	for i, w := range v {
		r := max(uint64(t.radix[i]), uint64(w)+1)
		if product > limit/r {
			return t.fallBack(v)
		}
		product *= r
	}
	size := uint64(initialSlots)
	for size < product {
		size *= 2
	}
	if size > limit {
		return t.fallBack(v)
	}
	if size > uint64(cap(t.table)) {
		t.table = make([]uint32, product, size)
	} else {
		t.table = t.table[:product]
		clear(t.table)
	}
	stride := uint32(1)
	for i, w := range v {
		t.radix[i] = max(t.radix[i], w+1)
		t.stride[i] = stride
		stride *= t.radix[i]
	}
	for id := range t.n {
		t.table[t.slot(t.Tuple(uint32(id)))] = uint32(id) + 1
	}
	id := t.store(v)
	t.table[t.slot(v)] = id + 1
	return id
}

// fallBack moves the table to the hash index, at the load below 1/2 that
// Intern keeps, and interns v there.
func (t *TupleTable) fallBack(v []uint32) uint32 {
	t.radix, t.stride = nil, nil
	slots := initialSlots
	for 2*t.n >= slots {
		slots *= 2
	}
	t.rehash(slots)
	id, _ := t.Intern(v)
	return id
}

// slot returns the index in the direct table of v's slot; every word of v
// must be below its position's radix.
func (t *TupleTable) slot(v []uint32) int {
	s := 0
	for i, w := range v {
		s += int(w) * int(t.stride[i])
	}
	return s
}

// Reset empties the table, keeping its pages, its index buffer and its
// index kind for reuse. Identifiers and tuples handed out before the
// reset are invalid afterwards.
func (t *TupleTable) Reset() {
	t.n = 0
	t.reindexed = 0
	if t.radix != nil {
		// Zero radices; widen sets the strides and clears the slots.
		clear(t.radix)
		t.table = t.table[:0]
		return
	}
	clear(t.table)
}

// rehash rebuilds the hash index over the given number of slots (a power
// of two) from the stored tuples, in the current buffer when it is large enough.
func (t *TupleTable) rehash(slots int) {
	if cap(t.table) >= slots {
		t.table = t.table[:slots]
		clear(t.table)
	} else {
		t.table = make([]uint32, slots)
	}
	mask := uint32(slots - 1)
	for id := 0; id < t.n; id++ {
		i := hashTuple(t.Tuple(uint32(id))) & mask
		for t.table[i] != 0 {
			i = (i + 1) & mask
		}
		t.table[i] = uint32(id) + 1
	}
	t.mask = mask
}
