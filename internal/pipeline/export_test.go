package pipeline

// Len reports the number of cached results.
func (s *MemoryStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// ResultModel returns the Model half of the session's store keys.
func (s *Session) ResultModel() (string, error) { return s.resultModel() }
