package ctmc

// The per-call forms of the batched solve and the measure evaluators,
// which the tests of this package compare against one another. The
// program compiles a selection once (SelectAll, SelectStates) and
// evaluates it on every solution; these helpers compile and evaluate in
// one call.

// SetDebugChecks sets the switch of the package's internal consistency
// assertions (see debugChecks) and returns its previous value.
func SetDebugChecks(on bool) (old bool) {
	old, debugChecks = debugChecks, on
	return old
}

// SolveBatch is SolveBatchLanes with the lowest failed lane, if any,
// reported as a *BatchPointError wrapping that lane's error.
func (c *CTMC) SolveBatch(points [][]float64, solve SolveOptions) ([][]float64, error) {
	out, laneErrs, err := c.SolveBatchLanes(points, solve)
	if err != nil {
		return nil, err
	}
	for k, e := range laneErrs {
		if e != nil {
			return nil, &BatchPointError{Point: k, Err: e}
		}
	}
	return out, nil
}

// Throughput computes the steady-state frequency of the LTS transitions
// selected by match, weighted by weight.
func (c *CTMC) Throughput(pi []float64, match func(label string) bool, weight func(label string) float64) float64 {
	f := c.Flow(pi)
	return f.Throughput(c.SelectAll(weight, match)[0])
}

// ProbLocallyEnabled computes the steady-state probability of the LTS
// predicate with the given name.
func (c *CTMC) ProbLocallyEnabled(pi []float64, predName string) (float64, error) {
	set, err := c.SelectStates(predName)
	if err != nil {
		return 0, err
	}
	return set.Prob(pi), nil
}

// StateReward computes the steady-state expectation of a state reward
// defined on LTS states: sum over tangible states of pi(s)·reward(ltsState).
func (c *CTMC) StateReward(pi []float64, reward func(ltsState int) float64) float64 {
	total := 0.0
	for ci, p := range pi {
		if p > 0 {
			total += p * reward(c.TangibleOf[ci])
		}
	}
	return total
}

// CTMCIndexOf returns the tangible index of an LTS state, or -1 when the
// state is vanishing.
func (c *CTMC) CTMCIndexOf(ltsState int) int { return c.ctmcIndex[ltsState] }

// NumExpEdges returns the number of exponential transitions retained from
// the LTS.
func (c *CTMC) NumExpEdges() int { return len(c.expEdges) }

// NumRateSlots returns the number of symbolic rate slots the chain was
// built with.
func (c *CTMC) NumRateSlots() int { return c.numSlots }
