package statespace

import (
	"bytes"
	"slices"
)

// Interner assigns dense uint32 identifiers to byte-string keys (canonical
// state encodings). Keys are stored back to back in one byte slab and
// located through an open-addressing hash table, so the steady-state cost
// of a hit is one hash, one probe chain, and one byte comparison — no
// allocation and no per-key string header. Identifiers are assigned in
// first-intern order.
//
// An Interner is single-writer: it is not safe for concurrent Intern
// calls. Each state-space generation and each simulation replication
// owns its interners, and interns in its own deterministic order (BFS
// order for the generator), so identifiers are a pure function of the
// model.
type Interner struct {
	slab  []byte
	offs  []uint32 // offs[id]..offs[id+1] is the key of id; len = Len()+1
	table []uint32 // open addressing; 0 = empty, otherwise id+1
	mask  uint32
}

// NewInterner returns an empty interner. It starts small: every
// compiled instance owns one, and most intern only a handful of keys.
func NewInterner() *Interner {
	const initialSlots = 16 // power of two
	return &Interner{
		offs:  make([]uint32, 1, initialSlots+1),
		table: make([]uint32, initialSlots),
		mask:  initialSlots - 1,
	}
}

// Len returns the number of interned keys.
func (in *Interner) Len() int { return len(in.offs) - 1 }

// Bytes returns the stored key of an identifier. The slice aliases the
// arena and must not be modified.
func (in *Interner) Bytes(id uint32) []byte {
	return in.slab[in.offs[id]:in.offs[id+1]]
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Intern returns the identifier of key, assigning the next free one when
// the key is new (fresh reports which). The key bytes are copied into the
// arena, so the caller may reuse its buffer.
func (in *Interner) Intern(key []byte) (id uint32, fresh bool) {
	h := uint32(fnv1a(key))
	i := h & in.mask
	for {
		e := in.table[i]
		if e == 0 {
			id = uint32(in.Len())
			if len(in.slab)+len(key) > cap(in.slab) {
				// Double the arena (append alone grows large slices by
				// 1.25×, copying the whole state table several times).
				in.slab = slices.Grow(in.slab, max(len(key), cap(in.slab)))
			}
			in.slab = append(in.slab, key...)
			in.offs = append(in.offs, uint32(len(in.slab)))
			in.table[i] = id + 1
			if 4*uint64(in.Len()) >= 3*uint64(len(in.table)) {
				in.grow()
			}
			return id, true
		}
		if bytes.Equal(in.Bytes(e-1), key) {
			return e - 1, false
		}
		i = (i + 1) & in.mask
	}
}

// grow doubles the hash table and rehashes every stored key.
func (in *Interner) grow() {
	next := make([]uint32, 2*len(in.table))
	mask := uint32(len(next) - 1)
	for id := 0; id < in.Len(); id++ {
		i := uint32(fnv1a(in.Bytes(uint32(id)))) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = uint32(id) + 1
	}
	in.table = next
	in.mask = mask
}
