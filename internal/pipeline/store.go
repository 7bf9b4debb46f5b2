package pipeline

import "sync"

// ResultKey content-addresses one Phase2 result: the spec's hash plus the
// exact bit patterns of the solve's inputs beyond the spec. Two equal
// keys denote solves whose floats are bit-identical, so a stored report
// may stand in for a fresh one.
type ResultKey struct {
	// Spec is the owning spec's content hash.
	Spec SpecHash
	// Point is the bit-encoded rate vector the chain was rebound to, or
	// the literal "default" for a solve at the model's built-in rates
	// (which cannot collide with encodePoint output — that is always a
	// multiple of 8 bytes).
	Point string
}

// Store memoizes Phase2 reports across sessions. Implementations must be
// safe for concurrent use and must not alias stored reports with callers
// (MemoryStore clones on both Put and Get). The interface is deliberately
// minimal so a persistent implementation (disk, service) can slot in
// behind the same sessions.
type Store interface {
	// Get returns the report stored under key, or ok == false.
	Get(key ResultKey) (rep *Phase2Report, ok bool)
	// Put stores rep under key, replacing any previous entry.
	Put(key ResultKey, rep *Phase2Report)
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

// Put implements Store.
func (s *MemoryStore) Put(key ResultKey, rep *Phase2Report) {
	if rep == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = rep.clone()
}
