package pipeline

// Len reports the number of cached results.
func (s *MemoryStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Len reports the number of interned session states.
func (mg *Manager) Len() int {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return len(mg.sessions)
}

// SpecHash returns the content address of the session's spec.
func (s *Session) SpecHash() SpecHash { return s.st.hash }
