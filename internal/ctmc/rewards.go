package ctmc

import (
	"context"
	"math"
	"slices"

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
// serves the chain it was compiled on at any rate point, from any number
// of goroutines.
type Selection struct {
	exp []expFiring
	van []vanFiring
}

// expFiring is one weighted firing of an exponential edge: it adds
// pi(src)·rate·count·w, where rate is the edge's rate at the Flow's
// point and count is 1 for the edge's own label or the folded label's
// expected traversal count.
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
// tangible states, at one rate point of the chain. The entry rates of the
// vanishing states, which every immediate firing reads, are propagated
// once per Flow, by the first selection that needs them. A Flow is for
// one goroutine; the chain and the selections it reads may be shared.
type Flow struct {
	c     *CTMC
	pi    []float64
	point []float64
	entry []float64
}

// Flow returns the evaluator of compiled selections on pi at the given
// rate point: a slotted exponential edge fires at rate point[slot-1],
// every other edge at its built-in rate. A nil point means the built-in
// rates of every edge. pi is a solution at the same point.
func (c *CTMC) Flow(pi, point []float64) Flow { return Flow{c: c, pi: pi, point: point} }

// rate returns exponential edge i's rate at f's point.
func (f *Flow) rate(i int) float64 {
	if f.point != nil {
		if s := f.c.expSlots[i]; s > 0 {
			return f.point[s-1]
		}
	}
	return f.c.expRate[i]
}

// Throughput evaluates a selection compiled on f's chain: the
// steady-state frequency (firings per unit time)
// of the selected transitions, weighted. Exponential firings count at
// pi(src)·rate, immediate ones at their vanishing source's entry rate
// times the branch probability. A label the generator folded away
// (vanishing-state folding) fires at its edge's frequency times the
// expected traversal count recorded on the edge, so the result matches
// the unfolded system.
func (f *Flow) Throughput(sel *Selection) float64 {
	pi := f.pi
	total := 0.0
	for _, x := range sel.exp {
		if p := pi[x.src]; p != 0 {
			total += p * f.rate(int(x.edge)) * x.count * x.w
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
			entry[vp] += p * f.rate(i)
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

// Series is the uniformization series of a chain from one initial
// distribution π₀, reduced to linear rewards. With P = I + Q/q, where q is
// 1.02 times the largest exit rate (the slack keeps P aperiodic), term k
// of reward j is r_j[k] = w_j·π₀Pᵏ for the reward's per-state vector w_j.
// Terms are computed as evaluations need them, each one vector-matrix
// product on two vectors the series keeps, and the context is polled once
// per term: a cancellation surfaces as a *fault.CanceledError whose
// Iteration is the term index. A nil context disables polling. A Series
// only reads its chain, so any number of them may share one; a Series
// itself is for one goroutine.
type Series struct {
	c       *CTMC
	ctx     context.Context
	q       float64
	rewards [][]float64
	n       int         // terms computed; v holds π₀Pⁿ
	v, next []float64   // next is the scratch of the step v ← vP
	r, cum  [][]float64 // per reward: r_j[k], and cum_j[k] = Σ_{i<k} r_j[i]
}

// Series starts the uniformization series of the chain from init, a
// distribution over tangible states, for the given per-state reward
// vectors. init is not modified.
func (c *CTMC) Series(ctx context.Context, init []float64, rewards ...[]float64) *Series {
	q := 0.0
	for _, e := range c.Exit {
		q = max(q, 1.02*e)
	}
	if q == 0 { // Q = 0: any rate uniformizes it
		q = 1
	}
	s := &Series{c: c, ctx: ctx, q: q, rewards: rewards, v: slices.Clone(init), next: make([]float64, c.N),
		r: make([][]float64, len(rewards)), cum: make([][]float64, len(rewards))}
	for j := range s.cum {
		s.cum[j] = []float64{0}
	}
	return s
}

// At returns the expected value of reward j at time t ≥ 0 and its
// expected accumulation over [0, t]:
//
//	instant     = Σₖ Pois(k; qt)·r_j[k] / Σₖ Pois(k; qt),
//	accumulated = (1/q)·Σₖ P[N(qt) > k]·r_j[k].
//
// The sums run over the Poisson window qt ± (10√qt + 20), the truncation
// of the whole series; the terms below it, where P[N(qt) > k] is 1 to
// double precision, enter the accumulation as one prefix sum.
func (s *Series) At(j int, t float64) (instant, accumulated float64, err error) {
	qt := s.q * t
	lo := max(0, int(qt-10*math.Sqrt(qt)-20))
	hi := int(qt + 10*math.Sqrt(qt) + 20)
	if err := s.grow(hi); err != nil {
		return 0, 0, err
	}
	// Poisson weights relative to the mode, built outward from it so that
	// none underflows.
	w := make([]float64, hi-lo+1)
	mode := int(qt) - lo
	w[mode] = 1
	for k := mode + 1; k < len(w); k++ {
		w[k] = w[k-1] * qt / float64(lo+k)
	}
	for k := mode - 1; k >= 0; k-- {
		w[k] = w[k+1] * float64(lo+k+1) / qt
	}
	// From the top, so the small tail weights are summed first; tail is
	// Σ_{i>k} w[i], the unnormalized P[N(qt) > k].
	r := s.r[j][lo : hi+1]
	tail, inst, acc := 0.0, 0.0, 0.0
	for k := len(w) - 1; k >= 0; k-- {
		inst += w[k] * r[k]
		acc += tail * r[k]
		tail += w[k]
	}
	return inst / tail, (s.cum[j][lo] + acc/tail) / s.q, nil
}

// grow computes the terms up to index k.
func (s *Series) grow(k int) error {
	for ; s.n <= k; s.n++ {
		if err := fault.Check(s.ctx, "ctmc.transient", -1, s.n); err != nil {
			return err
		}
		for j, rew := range s.rewards {
			x := 0.0
			for i, wi := range rew {
				x += wi * s.v[i]
			}
			s.r[j] = append(s.r[j], x)
			s.cum[j] = append(s.cum[j], s.cum[j][s.n]+x)
		}
		for i := range s.next {
			s.next[i] = s.v[i] * (1 - s.c.Exit[i]/s.q)
		}
		for src, row := range s.c.Rows {
			if p := s.v[src]; p != 0 {
				for _, e := range row {
					s.next[e.Col] += p * e.Rate / s.q
				}
			}
		}
		s.v, s.next = s.next, s.v
	}
	return nil
}

// NumVanishing returns the number of eliminated vanishing states.
func (c *CTMC) NumVanishing() int { return len(c.vanishing) }
