package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"sync"
)

// ResultKey content-addresses one Phase2 result. Two equal keys denote
// solves whose floats are bit-identical, so a stored report may stand in
// for a fresh one — in this process, or in a later one that resumes from
// a FileStore.
type ResultKey struct {
	// Model is the hex SHA-256 of everything beyond the point that can
	// change a result (Spec.storeHash): the store format version, the
	// formatted architectural description, Minimize, the measure
	// definitions and the resolved solver tolerance.
	Model string
	// Point is the bit-encoded rate vector the chain was rebound to, or
	// the literal "default" for a solve at the model's built-in rates
	// (which cannot collide with encodePoint output — that is always a
	// multiple of 8 bytes).
	Point string
}

// Store memoizes Phase2 reports across sessions. Implementations must be
// safe for concurrent use and must not alias stored reports with callers
// (MemoryStore clones on both Put and Get).
type Store interface {
	// Get returns the report stored under key, or ok == false.
	Get(key ResultKey) (rep *Phase2Report, ok bool)
	// Put stores rep under key. An error fails the solve that produced
	// rep, so a run never carries on believing it can be resumed when
	// its results were not recorded.
	Put(key ResultKey, rep *Phase2Report) error
}

// MemoryStore is the in-process Store: a mutex-guarded map that clones
// reports on the way in and out, so no caller can mutate a cached result
// under another's feet.
type MemoryStore struct {
	mu sync.Mutex
	m  map[ResultKey]*Phase2Report
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{m: make(map[ResultKey]*Phase2Report)}
}

// Get implements Store.
func (s *MemoryStore) Get(key ResultKey) (*Phase2Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.m[key]
	if !ok {
		return nil, false
	}
	return rep.clone(), true
}

// Put implements Store; it never fails.
func (s *MemoryStore) Put(key ResultKey, rep *Phase2Report) error {
	if rep == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = rep.clone()
	return nil
}

// FileStore is the Store that makes runs resumable: a MemoryStore whose
// every new entry is also appended to a file, which a later run loads to
// answer the solves this one already did. A stored report keeps its
// values and sizes but not its solver trace, so a hit looks the same
// whichever run put it. The file is storeMagic followed by one record
// per Put, integers big-endian and floats as IEEE-754 bits:
//
//	u32 body length | body | u64 FNV-64a of length and body
//	body: str Model | str Point | u64 States, Tangible, Vanishing |
//	      u32 n | n × (str name | u64 value), names strictly ascending
//
// where str is a u32 length and the bytes.
type FileStore struct {
	*MemoryStore
	mu  sync.Mutex // serializes appends
	f   *os.File
	err error // the first failed append, which fails every later Put
}

// Store file failure causes, wrapped with the file's path.
var (
	ErrNotStore     = errors.New("file is not a result store")
	ErrStoreVersion = errors.New("store format version is not supported")
	ErrStoreCorrupt = errors.New("store record is corrupt")
	// errTorn is a record cut short by the end of the file — what a run
	// killed mid-append leaves — which a load drops.
	errTorn = errors.New("store record is torn")
)

// storeMagic heads every store file: storeFamily plus the format version,
// which is hashed into every key too. Versions 1 to 5 were the sweep
// checkpoint this store replaced, a snapshot of one sweep's points under
// a fingerprint of the chain's structure and the measure names. Version
// 6 also hashed per-spec generation options into the key, so none of its
// keys match a later spec's. The key
// covers a solve's inputs, not the solver's code: a change to the
// solver's arithmetic (the order of its sweep, say) alters stored floats
// under unchanged keys, so it must bump the version. Version 7 stored
// plain Gauss-Seidel solutions; version 8 stores those of the
// extrapolated solver, which differ in their last bits.
const (
	storeFamily  = "DPMCKPT"
	storeVersion = '8'
	storeMagic   = storeFamily + string(storeVersion)
	// maxRecord bounds a record's declared length, so a corrupt length
	// is refused instead of being mistaken for a torn tail.
	maxRecord = 1 << 20
)

// OpenFileStore opens the store file at path. With resume set it loads
// what an earlier run appended — a missing or empty file is a fresh
// start — drops a torn last record and appends after the rest; a corrupt
// record, another format version, or a file that is not a store is
// refused. Without resume the file is started afresh.
func OpenFileStore(path string, resume bool) (*FileStore, error) {
	s := &FileStore{MemoryStore: NewMemoryStore()}
	valid := 0
	if resume {
		data, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		if len(data) > 0 {
			if valid, err = s.load(data); err != nil {
				return nil, fmt.Errorf("pipeline: store %s: %w", path, err)
			}
		}
	}
	var err error
	if valid == 0 {
		err = os.WriteFile(path, []byte(storeMagic), 0o644)
	} else {
		err = os.Truncate(path, int64(valid))
	}
	if err == nil {
		s.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// load fills the memory from an encoded store file and returns the length
// of its header and complete records.
func (s *FileStore) load(data []byte) (int, error) {
	if len(data) < len(storeMagic) || string(data[:len(storeFamily)]) != storeFamily {
		return 0, ErrNotStore
	}
	if v := data[len(storeFamily)]; v != storeVersion {
		return 0, fmt.Errorf("%w: file has version %q, this build reads version %q", ErrStoreVersion, v, storeVersion)
	}
	off := len(storeMagic)
	for off < len(data) {
		key, rep, n, err := decodeRecord(data[off:])
		if errors.Is(err, errTorn) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("record at byte %d: %w", off, err)
		}
		s.m[key] = rep
		off += n
	}
	return off, nil
}

// Put implements Store: a new key is appended to the file, then kept in
// memory.
func (s *FileStore) Put(key ResultKey, rep *Phase2Report) error {
	if rep == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if _, ok := s.MemoryStore.Get(key); ok {
		return nil
	}
	rep = &Phase2Report{Values: rep.Values, States: rep.States, Tangible: rep.Tangible, Vanishing: rep.Vanishing}
	if _, s.err = s.f.Write(encodeRecord(key, rep)); s.err != nil {
		return s.err
	}
	return s.MemoryStore.Put(key, rep)
}

// Close closes the store file.
func (s *FileStore) Close() error { return s.f.Close() }

// encodeRecord frames one store record.
func encodeRecord(key ResultKey, rep *Phase2Report) []byte {
	b := appendStr(appendStr(make([]byte, 4, 128), key.Model), key.Point)
	for _, n := range []int{rep.States, rep.Tangible, rep.Vanishing} {
		b = binary.BigEndian.AppendUint64(b, uint64(n))
	}
	names := make([]string, 0, len(rep.Values))
	for name := range rep.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.BigEndian.AppendUint32(b, uint32(len(names)))
	for _, name := range names {
		b = binary.BigEndian.AppendUint64(appendStr(b, name), math.Float64bits(rep.Values[name]))
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return binary.BigEndian.AppendUint64(b, checksum(b))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// decodeRecord decodes the record at the front of b and returns its
// length: errTorn when b ends inside it, else ErrStoreCorrupt for
// anything encodeRecord does not write. Every length and count is
// bounded by the bytes left before it sizes anything.
func decodeRecord(b []byte) (key ResultKey, rep *Phase2Report, n int, err error) {
	if len(b) < 4 {
		return key, nil, 0, errTorn
	}
	size := 4 + int(binary.BigEndian.Uint32(b))
	switch {
	case size > 4+maxRecord:
		return key, nil, 0, ErrStoreCorrupt
	case len(b) < size+8:
		return key, nil, 0, errTorn
	case checksum(b[:size]) != binary.BigEndian.Uint64(b[size:]):
		return key, nil, 0, ErrStoreCorrupt
	}
	// A bounds-checked cursor over the body: the first short read
	// clears ok, and every read then returns zero.
	body, ok := b[4:size], true
	take := func(n int) []byte {
		if !ok || n > len(body) {
			ok = false
			return nil
		}
		s := body[:n]
		body = body[n:]
		return s
	}
	num := func(n int) (v uint64) {
		for _, c := range take(n) {
			v = v<<8 | uint64(c)
		}
		return v
	}
	str := func() string { return string(take(int(num(4)))) }

	key = ResultKey{Model: str(), Point: str()}
	rep = &Phase2Report{States: int(num(8)), Tangible: int(num(8)), Vanishing: int(num(8))}
	count := int(num(4))
	if count > len(body)/12 { // a value takes at least 12 bytes
		return key, nil, 0, ErrStoreCorrupt
	}
	rep.Values = make(map[string]float64, count)
	prev := ""
	for i := 0; i < count && ok; i++ {
		name := str()
		if i > 0 && name <= prev {
			return key, nil, 0, ErrStoreCorrupt
		}
		prev = name
		rep.Values[name] = math.Float64frombits(num(8))
	}
	if !ok || len(body) != 0 {
		return key, nil, 0, ErrStoreCorrupt
	}
	return key, rep, size + 8, nil
}
