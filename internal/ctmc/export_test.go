package ctmc

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/lts"
)

// The per-call forms of the batched solve and the measure evaluators,
// which the tests of this package compare against one another. The
// program compiles a selection once (SelectAll, SelectStates) and
// evaluates it on every solution; these helpers compile and evaluate in
// one call.

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
	f := c.Flow(pi, nil)
	return f.Throughput(c.SelectAll(weight, match)[0])
}

// BoundForTest builds the chain of c's system with every rate slot bound
// to the constant point[slot-1] (lts.BindSlotsForTest): the reference a
// batched lane and a Flow at point are pinned to.
func (c *CTMC) BoundForTest(point []float64) (*CTMC, error) {
	return Build(lts.BindSlotsForTest(c.l, point))
}

// LaneRatesForTest gathers point into lane 0 of a batch as a batched
// solve does (fillBatch) and returns that lane's rates in generator form:
// the entries and the inverse exit rate (the one form of the exit rate a
// batch keeps) of every row of the bottom component, in Rows order. Rows
// outside the component are nil, with inverse exit rate 0.
func (c *CTMC) LaneRatesForTest(point []float64) (rows [][]Entry, invExit []float64, err error) {
	plan, err := c.ensurePlan()
	if err != nil {
		return nil, nil, err
	}
	if len(plan.target) < 2 {
		return nil, nil, fmt.Errorf("ctmc: a single-state component gathers no rates")
	}
	bc := c.fillBatch(plan, [][]float64{point})
	rows, invExit = make([][]Entry, c.N), make([]float64, c.N)
	t := 0
	for li, s := range plan.target {
		rows[s] = make([]Entry, len(c.Rows[s]))
		for j, e := range c.Rows[s] {
			rows[s][j] = Entry{Col: e.Col, Rate: math.NaN()}
			if pos := plan.fillPos[t]; pos >= 0 {
				rows[s][j].Rate = bc.rate[int(pos)*BatchLanes]
			}
			t++
		}
		invExit[s] = bc.invExit[li*BatchLanes]
	}
	return rows, invExit, nil
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

// PlanBytesForTest returns the bytes one solve-plan analysis of c
// allocates: the work ensurePlan does on a chain's first solve, run on a
// fresh plan so that the chain's own cached plan is not touched.
func (c *CTMC) PlanBytesForTest() uint64 {
	var p solvePlan
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.build(c)
	runtime.ReadMemStats(&after)
	if p.err != nil {
		panic(p.err)
	}
	return after.TotalAlloc - before.TotalAlloc
}
