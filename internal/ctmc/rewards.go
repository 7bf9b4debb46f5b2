package ctmc

import (
	"context"
	"math"

	"repro/internal/fault"
)

// Selection is a weighted transition selection compiled against a chain's
// structure: every firing Flow.Throughput weighs, as an ordered
// contribution.
// Exponential edges come first, in edge order, each with its own label
// and then the labels folded into it; immediate branches follow in
// elimination order, likewise. That is the order the additions of a
// throughput run in, so evaluating a Selection replays them exactly. A
// Selection holds no rates and no probabilities of a solution, so it
// serves the chain it was compiled on and every Clone of it, at any
// rebound rates, from any number of goroutines.
type Selection struct {
	exp []expFiring
	van []vanFiring
}

// expFiring is one weighted firing of an exponential edge: it adds
// pi(src)·rate·count·w, where rate is the edge's current rate and count
// is 1 for the edge's own label or the folded label's expected traversal
// count.
type expFiring struct {
	src, edge int32 // tangible index of the source; index into expEdges
	count, w  float64
}

// vanFiring is one weighted firing of an immediate branch: it adds
// entry·prob·count·w, where entry is the entry rate of the branch's
// vanishing source.
type vanFiring struct {
	pos            int32 // position of the source in the elimination order
	prob, count, w float64
}

// SelectAll compiles the transition selections of Flow.Throughput against
// the chain's structure, one per matcher, all weighted by weight (nil makes
// it 1), in two walks over the chain's exponential edges and
// immediate branches whatever the number of matchers: one counts each
// selection's firings, so the second fills slices of exactly that size.
// Each matcher is asked once per label of the chain's symbol table, and
// weight once per label and matcher that selects it.
func (c *CTMC) SelectAll(weight func(label string) float64, matches ...func(label string) bool) []*Selection {
	if weight == nil {
		weight = func(string) float64 { return 1 }
	}
	// hits[li] lists the selections that select label li, with its weight.
	hits := make([][]labelHit, c.l.NumLabels())
	for li := range hits {
		name := c.l.LabelName(li)
		for k, match := range matches {
			if match(name) {
				hits[li] = append(hits[li], labelHit{sel: k, w: weight(name)})
			}
		}
	}
	numExp, numVan := make([]int, len(matches)), make([]int, len(matches))
	c.firings(
		func(_ int, li int32, _ float64) {
			for _, h := range hits[li] {
				numExp[h.sel]++
			}
		},
		func(_ int, _ branch, li int32, _ float64) {
			for _, h := range hits[li] {
				numVan[h.sel]++
			}
		})
	sels := make([]*Selection, len(matches))
	for k := range sels {
		sels[k] = &Selection{exp: make([]expFiring, 0, numExp[k]), van: make([]vanFiring, 0, numVan[k])}
	}
	c.firings(
		func(edge int, li int32, count float64) {
			for _, h := range hits[li] {
				src := int32(c.ctmcIndex[c.expEdges[edge].src])
				sel := sels[h.sel]
				sel.exp = append(sel.exp, expFiring{src: src, edge: int32(edge), count: count, w: h.w})
			}
		},
		func(pos int, b branch, li int32, count float64) {
			for _, h := range hits[li] {
				sel := sels[h.sel]
				sel.van = append(sel.van, vanFiring{pos: int32(pos), prob: b.prob, count: count, w: h.w})
			}
		})
	return sels
}

// labelHit is one selection that selects a label, and the label's weight.
type labelHit struct {
	sel int
	w   float64
}

// firings calls exp for every firing of an exponential edge (its index)
// and van for every firing of an immediate branch (its source's position
// in the elimination order), with the fired label and its traversal
// count — 1 for the transition's own label, the expected count for a
// label folded into it — in the order a throughput sums them.
func (c *CTMC) firings(exp func(edge int, label int32, count float64), van func(pos int, b branch, label int32, count float64)) {
	for i, e := range c.expEdges {
		exp(i, int32(c.l.EdgeLabel(e.ltsTrans)), 1)
		labels, counts := c.l.AuxTerms(c.l.EdgeAux(e.ltsTrans))
		for k, li := range labels {
			exp(i, li, counts[k])
		}
	}
	for pos, brs := range c.branches {
		for _, b := range brs {
			van(pos, b, int32(c.l.EdgeLabel(b.ltsTrans)), 1)
			labels, counts := c.l.AuxTerms(c.l.EdgeAux(b.ltsTrans))
			for k, li := range labels {
				van(pos, b, li, counts[k])
			}
		}
	}
}

// StateSet is a state predicate compiled against a chain: the ascending
// tangible indices at which it holds. Like a Selection it depends on the
// chain's structure only.
type StateSet []int32

// SelectStates compiles the LTS predicate with the given name (recorded at
// generation time) against the chain.
func (c *CTMC) SelectStates(predName string) (StateSet, error) {
	col, err := c.l.PredColumn(predName)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, s := range c.TangibleOf {
		if col[s] {
			n++
		}
	}
	set := make(StateSet, 0, n)
	for ci, s := range c.TangibleOf {
		if col[s] {
			set = append(set, int32(ci))
		}
	}
	return set, nil
}

// Prob returns the probability that the distribution pi over tangible
// states assigns to the set.
func (set StateSet) Prob(pi []float64) float64 {
	total := 0.0
	for _, ci := range set {
		if p := pi[ci]; p != 0 {
			total += p
		}
	}
	return total
}

// Flow evaluates compiled selections on one distribution over a chain's
// tangible states, at the chain's current rates. The entry rates of the
// vanishing states, which every immediate firing reads, are propagated
// once per Flow, by the first selection that needs them. A Flow is for
// one goroutine; the selections it reads may be shared.
type Flow struct {
	c     *CTMC
	pi    []float64
	entry []float64
}

// Flow returns the evaluator of compiled selections on pi.
func (c *CTMC) Flow(pi []float64) Flow { return Flow{c: c, pi: pi} }

// Throughput evaluates a selection compiled on f's chain, or on the chain
// it was cloned from: the steady-state frequency (firings per unit time)
// of the selected transitions, weighted. Exponential firings count at
// pi(src)·rate, immediate ones at their vanishing source's entry rate
// times the branch probability. A label the generator folded away
// (vanishing-state folding) fires at its edge's frequency times the
// expected traversal count recorded on the edge, so the result matches
// the unfolded system.
func (f *Flow) Throughput(sel *Selection) float64 {
	pi, rate := f.pi, f.c.expRate
	total := 0.0
	for _, x := range sel.exp {
		if p := pi[x.src]; p != 0 {
			total += p * rate[x.edge] * x.count * x.w
		}
	}
	if len(sel.van) == 0 {
		return total
	}
	entry := f.entries()
	for _, x := range sel.van {
		if e := entry[x.pos]; e != 0 {
			total += e * x.prob * x.count * x.w
		}
	}
	return total
}

// entries returns the entry rate of every vanishing state: the flow of
// the exponential edges into it, then, in elimination order, the flow of
// the immediate branches into it.
func (f *Flow) entries() []float64 {
	if f.entry != nil {
		return f.entry
	}
	c := f.c
	entry := make([]float64, len(c.vanishing))
	for i, e := range c.expEdges {
		vp := c.vanPos[e.dst]
		if vp < 0 {
			continue
		}
		if p := f.pi[c.ctmcIndex[e.src]]; p != 0 {
			entry[vp] += p * c.expRate[i]
		}
	}
	for i, brs := range c.branches {
		if entry[i] == 0 {
			continue
		}
		for _, b := range brs {
			if vp := c.vanPos[b.dst]; vp >= 0 {
				entry[vp] += entry[i] * b.prob
			}
		}
	}
	f.entry = entry
	return entry
}

// TransientFromCtx evolves an arbitrary distribution over tangible states
// by time t (uniformization). The input is not modified.
//
// The Poisson weight vector of the series depends only on q·t and epsilon
// — not on the distribution being evolved — so it is computed once per
// (q·t, epsilon) pair and cached on the chain: battery-lifetime and
// startup-transient integrations step the same chain at a fixed dt
// thousands of times and reuse one vector. The cached path replays the
// identical weight recurrence and truncation rule, so results are bit for
// bit the same as recomputing the series inline.
//
// The context is polled once per Poisson term, and a cancellation
// surfaces as a *fault.CanceledError whose Iteration is the term index. A
// nil context disables polling; the arithmetic of completed terms is
// unaffected by when — or whether — a cancellation is observed.
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

// NumVanishing returns the number of eliminated vanishing states.
func (c *CTMC) NumVanishing() int { return len(c.vanishing) }
