package statespace

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// tupleOf returns a deterministic width-w tuple for index i, with small
// words so that many tuples share every word but the last few.
func tupleOf(i, w int) []uint32 {
	t := make([]uint32, w)
	for k := range t {
		t[k] = uint32((i >> (3 * k)) & 7)
	}
	t[w-1] += uint32(i) << 3
	return t
}

// TestTupleTableIDsAreDense pins ids 0, 1, 2, … in first-intern order, at
// every width from 1 to 12, with re-interning and Lookup returning the
// same ids.
func TestTupleTableIDsAreDense(t *testing.T) {
	for w := 1; w <= 12; w++ {
		tt := NewTupleTable(w)
		const n = 3000
		for i := 0; i < n; i++ {
			id, fresh := tt.Intern(tupleOf(i, w))
			if !fresh || id != uint32(i) {
				t.Fatalf("width %d: Intern #%d = (%d, %t), want (%d, true)", w, i, id, fresh, i)
			}
		}
		if tt.Len() != n {
			t.Fatalf("width %d: Len = %d, want %d", w, tt.Len(), n)
		}
		for i := 0; i < n; i++ {
			if id, fresh := tt.Intern(tupleOf(i, w)); fresh || id != uint32(i) {
				t.Fatalf("width %d: re-Intern #%d = (%d, %t)", w, i, id, fresh)
			}
			if id, ok := tt.Lookup(tupleOf(i, w)); !ok || id != uint32(i) {
				t.Fatalf("width %d: Lookup #%d = (%d, %t)", w, i, id, ok)
			}
		}
	}
}

// TestTupleTableLookupMisses checks Lookup neither finds absent tuples
// (including ones differing from a stored tuple in a single word) nor
// interns them.
func TestTupleTableLookupMisses(t *testing.T) {
	tt := NewTupleTable(4)
	if _, ok := tt.Lookup([]uint32{0, 0, 0, 0}); ok {
		t.Fatal("Lookup on an empty table succeeded")
	}
	tt.Intern([]uint32{1, 2, 3, 4})
	for k := 0; k < 4; k++ {
		v := []uint32{1, 2, 3, 4}
		v[k]++
		if _, ok := tt.Lookup(v); ok {
			t.Fatalf("Lookup(%v) succeeded", v)
		}
	}
	if _, ok := tt.Lookup([]uint32{1, 2, 3}); ok {
		t.Fatal("Lookup of a shorter tuple succeeded")
	}
	if tt.Len() != 1 {
		t.Fatalf("Len = %d after misses, want 1", tt.Len())
	}
}

// TestTupleTableRoundTripAfterGrowth interns past 100k tuples — several
// slab and hash-table doublings — and checks every Tuple(id) still reads
// back what was interned, and that a view taken before the growth is
// unchanged.
func TestTupleTableRoundTripAfterGrowth(t *testing.T) {
	const n, w = 120_000, 5
	tt := NewTupleTable(w)
	r := rand.New(rand.NewSource(3))
	want := make([][]uint32, 0, n)
	seen := make(map[[w]uint32]bool, n)
	var early []uint32
	for len(want) < n {
		var key [w]uint32
		for k := range key {
			key[k] = uint32(r.Intn(64))
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		id, fresh := tt.Intern(key[:])
		if !fresh || id != uint32(len(want)) {
			t.Fatalf("Intern #%d = (%d, %t)", len(want), id, fresh)
		}
		want = append(want, append([]uint32(nil), key[:]...))
		if len(want) == 10 {
			early = tt.Tuple(9)
		}
	}
	for id, v := range want {
		got := tt.Tuple(uint32(id))
		if len(got) != w {
			t.Fatalf("Tuple(%d) has %d words", id, len(got))
		}
		for k := range v {
			if got[k] != v[k] {
				t.Fatalf("Tuple(%d) = %v, want %v", id, got, v)
			}
		}
	}
	for k := range early {
		if early[k] != want[9][k] {
			t.Fatalf("early view of tuple 9 = %v, want %v", early, want[9])
		}
	}
}

// TestTupleTableReset checks a reset table starts ids over and forgets
// every tuple.
func TestTupleTableReset(t *testing.T) {
	tt := NewTupleTable(2)
	for i := 0; i < 2000; i++ {
		tt.Intern([]uint32{uint32(i), 7})
	}
	tt.Reset()
	if tt.Len() != 0 {
		t.Fatalf("Len = %d after Reset", tt.Len())
	}
	if _, ok := tt.Lookup([]uint32{5, 7}); ok {
		t.Fatal("Lookup found a tuple interned before Reset")
	}
	if id, fresh := tt.Intern([]uint32{5, 7}); !fresh || id != 0 {
		t.Fatalf("Intern after Reset = (%d, %t), want (0, true)", id, fresh)
	}
}

// FuzzTupleTable drives a table with tuples decoded from the input and
// checks it against a map keyed by the tuple bytes: the same ids in the
// same first-intern order, fresh exactly on first sight, Lookup agreeing
// before and after, and Tuple round-tripping every id.
func FuzzTupleTable(f *testing.F) {
	f.Add(uint8(1), []byte{1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0})
	f.Add(uint8(3), []byte("abcdefghijklabcdefghijkl0123456789ab"))
	f.Add(uint8(12), make([]byte, 200))
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		w := 1 + int(width)%12
		tt := NewTupleTable(w)
		ref := map[string]uint32{}
		var order []string
		for len(data) >= 4*w {
			key := string(data[:4*w])
			data = data[4*w:]
			v := make([]uint32, w)
			for k := range v {
				v[k] = binary.LittleEndian.Uint32([]byte(key[4*k:]))
			}
			wantID, known := ref[key]
			if id, ok := tt.Lookup(v); ok != known || (ok && id != wantID) {
				t.Fatalf("Lookup(%v) = (%d, %t), reference (%d, %t)", v, id, ok, wantID, known)
			}
			if !known {
				wantID = uint32(len(order))
				ref[key] = wantID
				order = append(order, key)
			}
			id, fresh := tt.Intern(v)
			if id != wantID || fresh == known {
				t.Fatalf("Intern(%v) = (%d, %t), reference (%d, %t)", v, id, fresh, wantID, !known)
			}
		}
		if tt.Len() != len(order) {
			t.Fatalf("Len = %d, reference %d", tt.Len(), len(order))
		}
		for id, key := range order {
			got := tt.Tuple(uint32(id))
			for k := range got {
				if got[k] != binary.LittleEndian.Uint32([]byte(key[4*k:])) {
					t.Fatalf("Tuple(%d) = %v, reference key %x", id, got, key)
				}
			}
		}
	})
}
