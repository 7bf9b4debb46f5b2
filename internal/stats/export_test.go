package stats

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no observations).
func (a *Accumulator) Mean() float64 { return a.mean }
