package ctmc

import (
	"context"
	"math"

	"repro/internal/fault"
	"repro/internal/lts"
)

// StateReward computes the steady-state expectation of a state reward
// defined on LTS states: sum over tangible states of pi(s)·reward(ltsState).
// Vanishing states carry no probability mass (they are left in zero time).
func (c *CTMC) StateReward(pi []float64, reward func(ltsState int) float64) float64 {
	total := 0.0
	for ci, p := range pi {
		if p > 0 {
			total += p * reward(c.TangibleOf[ci])
		}
	}
	return total
}

// Throughput computes the steady-state frequency (firings per unit time)
// of the LTS transitions selected by match, weighted by weight. Both
// exponential and immediate transitions are supported: the frequency of an
// immediate transition is derived from the entry rate of its vanishing
// source state, propagated through the immediate branching probabilities.
// Transitions that the generator folded away (compositional minimization)
// are accounted for through the reward attributions it left on the
// redirected edges: a folded label fires at the edge's frequency times its
// recorded expected traversal count, so the result matches the unfolded
// system. match and weight are asked once per label, not once per edge.
func (c *CTMC) Throughput(pi []float64, match func(label string) bool, weight func(label string) float64) float64 {
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

// ProbLocallyEnabled computes the steady-state probability of the LTS
// predicate with the given name (recorded at generation time).
func (c *CTMC) ProbLocallyEnabled(pi []float64, predName string) (float64, error) {
	total := 0.0
	for ci, p := range pi {
		if p == 0 {
			continue
		}
		v, err := c.l.Pred(predName, c.TangibleOf[ci])
		if err != nil {
			return 0, err
		}
		if v {
			total += p
		}
	}
	return total, nil
}

// Transient computes the state distribution at time t from the initial
// distribution, by uniformization. epsilon bounds the truncation error of
// the Poisson series (default 1e-10).
func (c *CTMC) Transient(t, epsilon float64) []float64 {
	return c.TransientFrom(c.Initial, t, epsilon)
}

// TransientFrom evolves an arbitrary distribution over tangible states by
// time t (uniformization). The input is not modified.
//
// The Poisson weight vector of the series depends only on q·t and epsilon
// — not on the distribution being evolved — so it is computed once per
// (q·t, epsilon) pair and cached on the chain: battery-lifetime and
// startup-transient integrations step the same chain at a fixed dt
// thousands of times and reuse one vector. The cached path replays the
// identical weight recurrence and truncation rule, so results are bit for
// bit the same as recomputing the series inline.
func (c *CTMC) TransientFrom(init []float64, t, epsilon float64) []float64 {
	out, _ := c.TransientFromCtx(nil, init, t, epsilon)
	return out
}

// TransientFromCtx is TransientFrom with cancellation: the context is
// polled once per Poisson term, and a cancellation surfaces as a
// *fault.CanceledError whose Iteration is the term index. A nil context
// disables polling; the arithmetic of completed terms is unaffected by
// when — or whether — a cancellation is observed.
func (c *CTMC) TransientFromCtx(ctx context.Context, init []float64, t, epsilon float64) ([]float64, error) {
	if epsilon <= 0 {
		epsilon = 1e-10
	}
	// Uniformization rate.
	lambda := 0.0
	for _, e := range c.Exit {
		if e > lambda {
			lambda = e
		}
	}
	out := make([]float64, c.N)
	if lambda == 0 || t <= 0 {
		copy(out, init)
		return out, nil
	}
	q := lambda * 1.02 // slack keeps the DTMC aperiodic
	// P = I + Q/q applied iteratively: v_{k+1} = v_k P.
	v := append([]float64(nil), init...)
	next := make([]float64, c.N)

	weights := c.poissonWeights(q*t, epsilon)
	for k, w := range weights {
		if err := fault.Check(ctx, "ctmc.transient", -1, k); err != nil {
			return nil, err
		}
		for i := range v {
			out[i] += w * v[i]
		}
		if k == len(weights)-1 {
			break
		}
		// v <- v P
		for i := range next {
			next[i] = v[i] * (1 - c.Exit[i]/q)
		}
		for s := range c.Rows {
			if v[s] == 0 {
				continue
			}
			for _, e := range c.Rows[s] {
				next[e.Col] += v[s] * e.Rate / q
			}
		}
		v, next = next, v
	}
	// Renormalize for the truncated tail.
	total := 0.0
	for _, p := range out {
		total += p
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out, nil
}

// poissonKey identifies a cached uniformization weight vector. The key
// includes q·t, so a Rebind — which can change the maximal exit rate and
// with it q — never matches a stale vector even before the cache is
// dropped.
type poissonKey struct{ qt, epsilon float64 }

// poissonWeights returns the truncated, underflow-scaled Poisson(q·t)
// weight sequence, cached per (q·t, epsilon).
func (c *CTMC) poissonWeights(qt, epsilon float64) []float64 {
	key := poissonKey{qt: qt, epsilon: epsilon}
	c.poissonMu.Lock()
	w, ok := c.poisson[key]
	c.poissonMu.Unlock()
	if ok {
		return w
	}
	w = computePoissonWeights(qt, epsilon)
	c.poissonMu.Lock()
	if c.poisson == nil {
		c.poisson = make(map[poissonKey][]float64)
	}
	c.poisson[key] = w
	c.poissonMu.Unlock()
	return w
}

// computePoissonWeights evaluates the Poisson(q·t) series in log space.
// Truncation: at least kMax = qt + 10·√qt + 20 terms, extended until the
// accumulated mass is within epsilon of 1, hard-capped at 4·kMax terms —
// the exact rule the inline loop applied before the vector was cacheable.
func computePoissonWeights(qt, epsilon float64) []float64 {
	kMax := int(qt + 10*math.Sqrt(qt) + 20)
	logW := -qt
	sumW := 0.0
	ws := make([]float64, 0, kMax+1)
	for k := 0; ; k++ {
		w := math.Exp(logW)
		sumW += w
		ws = append(ws, w)
		if k >= kMax && 1-sumW < epsilon {
			break
		}
		if k > kMax*4 {
			break
		}
		logW += math.Log(qt) - math.Log(float64(k+1))
	}
	return ws
}

// MeanExitRate returns the steady-state average exit rate (a sanity
// metric: the total event rate of the chain).
func (c *CTMC) MeanExitRate(pi []float64) float64 {
	total := 0.0
	for ci, p := range pi {
		total += p * c.Exit[ci]
	}
	return total
}

// NumExpEdges returns the number of exponential transitions retained from
// the LTS (diagnostics).
func (c *CTMC) NumExpEdges() int { return len(c.expEdges) }

// NumVanishing returns the number of eliminated vanishing states.
func (c *CTMC) NumVanishing() int { return len(c.vanishing) }
