package statespace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestTupleTableRoundTripAfterGrowth interns past 100k tuples — every
// growing page, hundreds of full ones and several hash-table doublings —
// and checks every Tuple(id) still reads back what was interned, and that
// a view taken before the growth is unchanged.
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

// checkNeverMoves interns stream into tt and checks, after every intern,
// that each stored tuple still sits at the address and holds the words it
// had when it was stored. It returns the address of every tuple.
func checkNeverMoves(t *testing.T, name string, tt *TupleTable, stream [][]uint32) []*uint32 {
	t.Helper()
	var addr []*uint32
	var want [][]uint32
	for k, v := range stream {
		if _, fresh := tt.Intern(v); fresh {
			id := uint32(len(addr))
			addr = append(addr, &tt.Tuple(id)[0])
			want = append(want, v)
		}
		for id := range addr {
			got := tt.Tuple(uint32(id))
			if &got[0] != addr[id] || !slices.Equal(got, want[id]) {
				t.Fatalf("%s: after tuple #%d, tuple %d is %v at %p, stored as %v at %p",
					name, k, id, got, &got[0], want[id], addr[id])
			}
		}
	}
	return addr
}

// TestTupleTableTuplesNeverMove interns past every growing page and at
// least three full pages into a hash-indexed table, a direct-indexed one
// that stays direct and one that falls back to hashing midway, and checks
// after every intern that no stored tuple has moved or changed. It then
// resets each table and interns the same count of other tuples, which
// must reuse the pages: every id lands where the same id was before.
func TestTupleTableTuplesNeverMove(t *testing.T) {
	const w, r = 3, 14 // a dense grid of r^3 = 2,744 tuples
	full := firstPageTuples<<growingPages - firstPageTuples + 3*pageTuples
	grid := lateRadixStream(w, r, 1)[:r*r*r]
	if len(grid) < full {
		t.Fatalf("the grid holds %d tuples, not the %d that fill three full pages", len(grid), full)
	}
	sparse := fallbackStream(w, r, full)
	shifted := make([][]uint32, len(grid))
	for k, v := range grid {
		shifted[k] = []uint32{v[0] + r, v[1], v[2]}
	}
	for _, c := range []struct {
		name   string
		tt     *TupleTable
		stream [][]uint32
		direct bool // the index kind at the end
	}{
		{"hash", NewTupleTable(w), grid, false},
		{"direct", NewDirectTupleTable(w), grid, true},
		{"direct fallback", NewDirectTupleTable(w), sparse, false},
	} {
		before := checkNeverMoves(t, c.name, c.tt, c.stream)
		if len(before) < full {
			t.Fatalf("%s: %d tuples stored, fewer than the %d that fill three full pages", c.name, len(before), full)
		}
		if direct, _, _ := c.tt.IndexStats(); direct != c.direct {
			t.Fatalf("%s: direct index at the end is %t, want %t", c.name, direct, c.direct)
		}
		c.tt.Reset()
		after := checkNeverMoves(t, c.name+" after Reset", c.tt, shifted)
		for id := range min(len(before), len(after)) {
			if after[id] != before[id] {
				t.Fatalf("%s: after Reset, tuple %d is stored at %p, not in the kept page at %p", c.name, id, after[id], before[id])
			}
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

// decodeTuples reads width-w tuples from data, one word per byte: a byte
// below 0xF0 is the word itself, so most words are small, like the local
// ids of a reachable state set, and a byte from 0xF0 up escapes a word
// of any size, the next four bytes little endian, so a stream can be as
// sparse as the direct index's fallback needs and reach every uint32. A
// trailing partial tuple is dropped.
func decodeTuples(w int, data []byte) [][]uint32 {
	var out [][]uint32
	v := make([]uint32, 0, w)
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		word := uint32(b)
		if b >= 0xF0 {
			if len(data) < 4 {
				break
			}
			word = binary.LittleEndian.Uint32(data)
			data = data[4:]
		}
		v = append(v, word)
		if len(v) == w {
			out = append(out, v)
			v = make([]uint32, 0, w)
		}
	}
	return out
}

// encodeTuples is decodeTuples' inverse, for building seed streams.
func encodeTuples(tuples [][]uint32) []byte {
	var out []byte
	for _, v := range tuples {
		for _, w := range v {
			if w < 0xF0 {
				out = append(out, byte(w))
			} else {
				out = binary.LittleEndian.AppendUint32(append(out, 0xF0), w)
			}
		}
	}
	return out
}

// wordTuples reads width-w tuples from data four bytes a word, little
// endian, dropping a trailing partial tuple: how FuzzTupleTable read its
// input before it escaped large words, kept so its first seeds still
// stand for the tuples they were written as.
func wordTuples(w int, data []byte) [][]uint32 {
	var out [][]uint32
	for ; len(data) >= 4*w; data = data[4*w:] {
		v := make([]uint32, w)
		for k := range v {
			v[k] = binary.LittleEndian.Uint32(data[4*k:])
		}
		out = append(out, v)
	}
	return out
}

// indexRun reports what the direct-indexed table of checkIndexesAgree
// went through.
type indexRun struct {
	fellBack bool // it moved to the hash index at some point
	direct   bool // it indexes directly at the end
}

// checkIndexesAgree interns the stream into a direct-indexed table, a
// hash-indexed table and a map reference keyed by the tuple, and resets
// all three before tuple resetAt (never when it is 0). At every step both
// tables must agree with the reference on Lookup, on Intern's id and on
// its fresh flag, and a direct table must hold at most maxSlotsPerState
// slots per tuple plus slotFloor, counting the most tuples it has held
// (Reset keeps the buffer), and have re-indexed at most
// maxReindexPerState tuples per tuple it holds plus reindexFloor. Before
// every reset and at the end, Tuple(id) must read back every reference
// tuple from both.
func checkIndexesAgree(t *testing.T, w int, tuples [][]uint32, resetAt int) indexRun {
	t.Helper()
	direct, hash := NewDirectTupleTable(w), NewTupleTable(w)
	tables := map[string]*TupleTable{"direct": direct, "hash": hash}
	var run indexRun
	most := 0 // the most tuples the direct table has held
	ref := map[string]uint32{}
	var order [][]uint32
	readBack := func() {
		t.Helper()
		if direct.Len() != len(order) || hash.Len() != len(order) {
			t.Fatalf("Len = %d direct, %d hash, reference %d", direct.Len(), hash.Len(), len(order))
		}
		for id, v := range order {
			if !slices.Equal(direct.Tuple(uint32(id)), v) || !slices.Equal(hash.Tuple(uint32(id)), v) {
				t.Fatalf("Tuple(%d) = %v direct, %v hash, reference %v", id, direct.Tuple(uint32(id)), hash.Tuple(uint32(id)), v)
			}
		}
	}
	for k, v := range tuples {
		if resetAt > 0 && k == resetAt {
			readBack()
			direct.Reset()
			hash.Reset()
			clear(ref)
			order = order[:0]
		}
		key := fmt.Sprint(v)
		wantID, known := ref[key]
		for name, tt := range tables {
			if id, ok := tt.Lookup(v); ok != known || (ok && id != wantID) {
				t.Fatalf("tuple #%d: Lookup(%v) = (%d, %t) on the %s table, reference (%d, %t)",
					k, v, id, ok, name, wantID, known)
			}
		}
		if !known {
			wantID = uint32(len(order))
			ref[key] = wantID
			order = append(order, v)
		}
		for name, tt := range tables {
			if id, fresh := tt.Intern(v); id != wantID || fresh == known {
				t.Fatalf("tuple #%d: Intern(%v) = (%d, %t) on the %s table, reference (%d, %t)",
					k, v, id, fresh, name, wantID, !known)
			}
		}
		most = max(most, direct.Len())
		isDirect, slots, reindexed := direct.IndexStats()
		switch {
		case !isDirect:
			run.fellBack = true
		case slots > maxSlotsPerState*most+slotFloor:
			t.Fatalf("tuple #%d: the direct index holds %d slots for %d tuples", k, slots, direct.Len())
		case reindexed > maxReindexPerState*direct.Len()+reindexFloor:
			t.Fatalf("tuple #%d: the direct index re-indexed %d tuples for %d", k, reindexed, direct.Len())
		}
	}
	readBack()
	run.direct, _, _ = direct.IndexStats()
	return run
}

// lateRadixStream returns every tuple of the w-dimensional grid [0, r)^w
// twice over, in an order where the top two local ids of position pos
// first appear once the (r−2)/r of the grid without them is stored: each
// of them widens a radix and re-indexes most of the table.
func lateRadixStream(w, r, pos int) [][]uint32 {
	var early, late [][]uint32
	size := 1
	for range w {
		size *= r
	}
	for i := range size {
		v := make([]uint32, w)
		for k, x := 0, i; k < w; k, x = k+1, x/r {
			v[k] = uint32(x % r)
		}
		if int(v[pos]) >= r-2 {
			late = append(late, v)
		} else {
			early = append(early, v)
		}
	}
	rand.New(rand.NewSource(int64(pos))).Shuffle(len(early), func(i, j int) { early[i], early[j] = early[j], early[i] })
	stream := append(early, late...)
	return append(stream, stream...)
}

// fallbackStream returns a dense grid, then tuples with words up to 2^20
// whose product soon exceeds the direct index's bound, then the grid
// again: 2·grid + sparse tuples in all.
func fallbackStream(w, r, sparse int) [][]uint32 {
	twice := lateRadixStream(w, r, 0)
	grid := twice[:len(twice)/2]
	rnd := rand.New(rand.NewSource(9))
	stream := slices.Clone(grid)
	for range sparse {
		v := make([]uint32, w)
		for k := range v {
			v[k] = uint32(rnd.Intn(1 << 20))
		}
		stream = append(stream, v)
	}
	return append(stream, grid...)
}

// TestDirectIndexMatchesHash drives the direct and the hash index with
// the same streams: local ids that first appear late, at the first
// position (whose stride is 1) and at the last (whose stride is the
// largest), once straight through and once reset halfway, and a stream
// whose sparse middle moves the direct table to the hash index, where a
// reset leaves it.
func TestDirectIndexMatchesHash(t *testing.T) {
	for _, pos := range []int{0, 3} {
		stream := lateRadixStream(4, 7, pos)
		for _, resetAt := range []int{0, len(stream) / 2} {
			if run := checkIndexesAgree(t, 4, stream, resetAt); run.fellBack || !run.direct {
				t.Errorf("late ids at position %d, reset at %d: %+v, want a direct index throughout", pos, resetAt, run)
			}
		}
	}
	const w, r, sparse = 3, 9, 200
	stream := fallbackStream(w, r, sparse)
	for _, resetAt := range []int{0, len(stream) - r*r*r} {
		if run := checkIndexesAgree(t, w, stream, resetAt); !run.fellBack || run.direct {
			t.Errorf("sparse stream, reset at %d: %+v, want the hash index from the sparse tuples on", resetAt, run)
		}
	}
}

// TestDirectIndexHighWords drives both indexes with a word at 2^31 or at
// MaxUint32 (whose radix does not fit a word) after a few small tuples,
// at width 1 and width 3: the direct table must move to the hash index
// rather than wrap a radix, a stride or a slot, and agree with it on
// every id before and after.
func TestDirectIndexHighWords(t *testing.T) {
	for _, high := range []uint32{1 << 31, math.MaxUint32} {
		for _, stream := range [][][]uint32{
			{{0}, {1}, {high}, {1}, {high}, {2}, {high - 1}},
			{{0, 0, 0}, {1, 2, 0}, {0, high, 0}, {1, 2, 0}, {high, 0, 1}, {0, high, 0}, {high, high, high}},
		} {
			if run := checkIndexesAgree(t, len(stream[0]), stream, 0); !run.fellBack || run.direct {
				t.Errorf("word %d at width %d: %+v, want the hash index from it on", high, len(stream[0]), run)
			}
		}
	}
}

// counterStream returns the width-1 tuples 0, 1, …, n−1: every one raises
// the radix, so a direct table re-indexes all the tuples before it.
func counterStream(n int) [][]uint32 {
	stream := make([][]uint32, n)
	for i := range stream {
		stream[i] = []uint32{uint32(i)}
	}
	return stream
}

// TestDirectIndexReindexBudget drives both indexes with 100,000 tuples
// whose local ids keep arriving in ascending order, so every fresh id
// raises a radix: one position counting up (one instance alone), and a
// position cycling through 100 ids beside one filling a 1,000-deep
// buffer. Re-indexing on every raise would cost quadratic work; the
// direct table must stay within its re-index bound (checkIndexesAgree
// checks it at every tuple) and move to the hash index.
func TestDirectIndexReindexBudget(t *testing.T) {
	const n = 100_000
	var buffer [][]uint32
	for i := range n {
		buffer = append(buffer, []uint32{uint32(i % 100), uint32(i / 100)})
	}
	for name, stream := range map[string][][]uint32{"counter": counterStream(n), "buffer": buffer} {
		run := checkIndexesAgree(t, len(stream[0]), stream, 0)
		if !run.fellBack || run.direct {
			t.Errorf("%s: %+v, want the hash index once the re-index bound is reached", name, run)
		}
	}
}

// FuzzTupleTable drives a direct-indexed and a hash-indexed table with the
// same tuple stream decoded from the input (decodeTuples), resetting both
// at tuple resetAt, and checks them against each other and a map
// reference (checkIndexesAgree): the same ids in the same first-intern
// order, fresh exactly on first sight, Lookup agreeing before and after,
// Tuple round-tripping every id, and the direct index within its slot
// and re-index bounds until it falls back to hashing. The seeds include a
// late-radix stream, a stream that crosses the slot bound and one that
// crosses the re-index bound.
func FuzzTupleTable(f *testing.F) {
	f.Add(uint8(1), uint8(0), encodeTuples(wordTuples(2, []byte{1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0})))
	f.Add(uint8(3), uint8(5), encodeTuples(wordTuples(4, []byte("abcdefghijklabcdefghijkl0123456789ab"))))
	f.Add(uint8(12), uint8(0), encodeTuples(wordTuples(1, make([]byte, 200))))
	f.Add(uint8(3), uint8(200), encodeTuples(lateRadixStream(3, 6, 2)))
	fallback := fallbackStream(2, 6, 40)
	f.Add(uint8(2), uint8(len(fallback)-36), encodeTuples(fallback))
	f.Add(uint8(0), uint8(0), encodeTuples(counterStream(600)))
	f.Add(uint8(1), uint8(0), encodeTuples(lateRadixStream(2, 48, 1)))
	f.Fuzz(func(t *testing.T, width, resetAt uint8, data []byte) {
		w := 1 + int(width)%12
		checkIndexesAgree(t, w, decodeTuples(w, data), int(resetAt))
	})
}
