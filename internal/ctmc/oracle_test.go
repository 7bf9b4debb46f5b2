package ctmc

// This file keeps the per-call reward walk that compiled selections
// replaced, as the oracle the compiled path is pinned to bit for bit:
// oracleThroughput re-walks every exponential edge and immediate branch
// on each call, and oracleProbLocallyEnabled looks its predicate up by
// name once per tangible state.

import (
	"fmt"

	"repro/internal/lts"
)

// oracleThroughput is the per-call throughput walk.
func (c *CTMC) oracleThroughput(pi []float64, match func(label string) bool, weight func(label string) float64) float64 {
	if weight == nil {
		weight = func(string) float64 { return 1 }
	}
	lw := labelWeights{l: c.l, match: match, weight: weight,
		sel: make([]int8, c.l.NumLabels()), w: make([]float64, c.l.NumLabels())}
	total := 0.0

	// foldedAt adds the attributed frequencies of labels folded into the
	// edge at global LTS index ltsTrans, which fires at the given rate.
	foldedAt := func(ltsTrans int, fire float64) {
		a := c.l.EdgeAux(ltsTrans)
		if a == 0 {
			return
		}
		labels, counts := c.l.AuxTerms(a)
		for i, li := range labels {
			if w, ok := lw.of(int(li)); ok {
				total += fire * counts[i] * w
			}
		}
	}

	// Exponential transitions fire at pi(src)·lambda.
	// Also accumulate the entry rates of vanishing states.
	entry := make([]float64, len(c.vanishing))
	for i, e := range c.expEdges {
		p := pi[c.ctmcIndex[e.src]]
		if p == 0 {
			continue
		}
		rate := c.expRate[i]
		if w, ok := lw.of(c.l.EdgeLabel(e.ltsTrans)); ok {
			total += p * rate * w
		}
		foldedAt(e.ltsTrans, p*rate)
		if vp := c.vanPos[e.dst]; vp >= 0 {
			entry[vp] += p * rate
		}
	}
	// Propagate entry rates through the vanishing DAG in topological
	// order; each immediate branch fires at entry(src)·prob.
	for i := range c.vanishing {
		if entry[i] == 0 {
			continue
		}
		for _, b := range c.branches[i] {
			fire := entry[i] * b.prob
			if w, ok := lw.of(c.l.EdgeLabel(b.ltsTrans)); ok {
				total += fire * w
			}
			foldedAt(b.ltsTrans, fire)
			if vp := c.vanPos[b.dst]; vp >= 0 {
				entry[vp] += fire
			}
		}
	}
	return total
}

// labelWeights resolves a match/weight pair lazily, once per label index.
type labelWeights struct {
	l      *lts.LTS
	match  func(string) bool
	weight func(string) float64
	sel    []int8 // 0 unresolved, 1 selected, -1 not
	w      []float64
}

// of returns the weight of label index li and whether match selects it.
func (lw *labelWeights) of(li int) (float64, bool) {
	if lw.sel[li] == 0 {
		lw.sel[li] = -1
		if name := lw.l.LabelName(li); lw.match(name) {
			lw.sel[li] = 1
			lw.w[li] = lw.weight(name)
		}
	}
	return lw.w[li], lw.sel[li] > 0
}

// oracleProbLocallyEnabled is the per-call predicate walk, with the
// by-name predicate lookup it made once per tangible state.
func (c *CTMC) oracleProbLocallyEnabled(pi []float64, predName string) (float64, error) {
	pred := func(name string, s int) (bool, error) {
		for i, n := range c.l.PredNames {
			if n == name {
				return c.l.Preds[i][s], nil
			}
		}
		return false, fmt.Errorf("lts: unknown predicate %q", name)
	}
	total := 0.0
	for ci, p := range pi {
		if p == 0 {
			continue
		}
		v, err := pred(predName, c.TangibleOf[ci])
		if err != nil {
			return 0, err
		}
		if v {
			total += p
		}
	}
	return total, nil
}

// ThroughputOracleForTest hands the per-call throughput walk to the
// external tests.
func ThroughputOracleForTest(c *CTMC, pi []float64, match func(string) bool, weight func(string) float64) float64 {
	return c.oracleThroughput(pi, match, weight)
}

// ProbLocallyEnabledOracleForTest hands the per-call predicate walk to
// the external tests.
func ProbLocallyEnabledOracleForTest(c *CTMC, pi []float64, predName string) (float64, error) {
	return c.oracleProbLocallyEnabled(pi, predName)
}

// SelectionSizesForTest reports how many exponential and immediate
// firings a compiled selection holds.
func SelectionSizesForTest(sel *Selection) (exp, van int) { return len(sel.exp), len(sel.van) }

// SlabSizesForTest reports the length and capacity of every array Build
// sizes with its counting pass, by name.
func SlabSizesForTest(c *CTMC) map[string][2]int {
	return map[string][2]int{
		"expEdges":  {len(c.expEdges), cap(c.expEdges)},
		"expRate":   {len(c.expRate), cap(c.expRate)},
		"expSlots":  {len(c.expSlots), cap(c.expSlots)},
		"terms":     {len(c.terms), cap(c.terms)},
		"termStart": {len(c.termStart), cap(c.termStart)},
	}
}
