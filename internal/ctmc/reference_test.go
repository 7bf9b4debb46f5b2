package ctmc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/lts"
	"repro/internal/rates"
)

// referenceGS is a scalar Gauss-Seidel steady-state solve written
// independently of the four-lane kernel: the bottom component's rows in
// the solve plan's order (every such row has a positive exit rate), in-edges
// gathered from Rows in that order, the guarded max relative change, and
// one sum/reciprocal/multiply normalization per sweep, from the uniform
// start. With extrapolate set, every tenth sweep that does not converge is
// followed by the solver's safeguarded Aitken step (referenceAitken), so
// the solve is a bit-for-bit oracle of the kernel; without it the solve is
// plain Gauss-Seidel, the oracle of the sweep count extrapolation saves.
// It returns the distribution and the sweep count at convergence, or nil
// and 0 when the budget runs out. A one-state component is solved without
// a sweep, as the solver solves it.
func referenceGS(c *CTMC, tol float64, maxIter int, extrapolate bool) ([]float64, int) {
	p, _ := c.ensurePlan()
	if len(p.target) == 1 {
		pi := make([]float64, c.N)
		pi[p.target[0]] = 1
		return pi, 0
	}
	local := make(map[int]int, len(p.target))
	for j, s := range p.target {
		local[s] = j
	}
	inFrom, inRate := make([][]int, len(p.target)), make([][]float64, len(p.target))
	x := make([]float64, len(p.target))
	for i, s := range p.target {
		for _, e := range c.Rows[s] {
			if j, ok := local[e.Col]; ok {
				inFrom[j], inRate[j] = append(inFrom[j], i), append(inRate[j], e.Rate)
			}
		}
		x[i] = 1 / float64(len(p.target))
	}
	var x7, x8, x9 []float64 // the iterates after sweeps 7, 8 and 9 of a period of ten
	for iter := 1; iter <= maxIter; iter++ {
		maxDelta, total := 0.0, 0.0
		for j, s := range p.target {
			inflow := 0.0
			for k, from := range inFrom[j] {
				inflow += x[from] * inRate[j][k]
			}
			next := inflow * (1 / c.Exit[s])
			d, m := math.Abs(next-x[j]), math.Max(next, 1e-300)
			if d > maxDelta*m*residualGuard && d/m > maxDelta {
				maxDelta = d / m
			}
			x[j] = next
			total += next
		}
		for j := range x {
			x[j] *= 1 / total
		}
		if maxDelta < tol {
			pi := make([]float64, c.N)
			for j, s := range p.target {
				pi[s] = x[j]
			}
			return pi, iter
		}
		if !extrapolate {
			continue
		}
		switch iter % 10 {
		case 7:
			x7 = append(x7[:0], x...)
		case 8:
			x8 = append(x8[:0], x...)
		case 9:
			x9 = append(x9[:0], x...)
		case 0:
			referenceAitken(x, x7, x8, x9)
		}
	}
	return nil, 0
}

// referenceAitken is the extrapolation step of referenceGS after sweep
// 10 of a period, whose iterate x follows x7, x8 and x9: with the sweep
// differences d1 = x8−x7, d2 = x9−x8 and d3 = x−x9, the ratio estimates
// r' = ⟨d2,d1⟩/⟨d1,d1⟩ and r = ⟨d3,d2⟩/⟨d2,d2⟩ must both lie in (0, 1)
// and differ by at most 0.1·(1−r); then x + r/(1−r)·d3, if no entry is
// negative, replaces x, normalized by its row-order sum. Every inner
// product is summed in row order from +0.
func referenceAitken(x, x7, x8, x9 []float64) {
	dot := func(a, b, c, d []float64) float64 { // ⟨a−b, c−d⟩
		s := 0.0
		for j := range a {
			s += (a[j] - b[j]) * (c[j] - d[j])
		}
		return s
	}
	r1 := dot(x9, x8, x8, x7) / dot(x8, x7, x8, x7)
	r := dot(x, x9, x9, x8) / dot(x9, x8, x9, x8)
	if !(r > 0 && r < 1 && r1 > 0 && r1 < 1 && math.Abs(r-r1) <= 0.1*(1-r)) {
		return
	}
	y := make([]float64, len(x))
	total := 0.0
	for j := range x {
		y[j] = x[j] + r/(1-r)*(x[j]-x9[j])
		if !(y[j] >= 0) {
			return
		}
		total += y[j]
	}
	for j := range x {
		x[j] = y[j] * (1 / total)
	}
}

// gth solves the stationary distribution of an irreducible chain exactly
// by the Grassmann–Taksar–Heyman elimination: a is the dense n×n
// row-major rate matrix (a[i·n+j] = rate i→j; the diagonal is never
// read) and is overwritten, y receives the distribution. GTH is
// subtraction-free — every update adds products of nonnegative numbers —
// so it is stable on stiff chains, and it is one fixed sequential
// elimination order. It reports false when an elimination step finds no
// outflow (the chain is reducible), in which case y is meaningless.
func gth(n int, a, y []float64) bool {
	for k := n - 1; k >= 1; k-- {
		s := 0.0
		for j := 0; j < k; j++ {
			s += a[k*n+j]
		}
		if !(s > 0) {
			return false
		}
		inv := 1 / s
		for i := 0; i < k; i++ {
			aik := a[i*n+k] * inv
			a[i*n+k] = aik
			if aik != 0 {
				for j := 0; j < k; j++ {
					if j != i {
						a[i*n+j] += aik * a[k*n+j]
					}
				}
			}
		}
	}
	y[0] = 1
	total := 1.0
	for k := 1; k < n; k++ {
		v := 0.0
		for i := 0; i < k; i++ {
			v += y[i] * a[i*n+k]
		}
		y[k] = v
		total += v
	}
	inv := 1 / total
	for k := 0; k < n; k++ {
		y[k] *= inv
	}
	return true
}

// GTHSteadyStateForTest is the direct-solve oracle of the steady state:
// the dense generator of the chain's reachable bottom component, solved
// by gth and scattered back to tangible-state order. It shares no code
// with the iterative kernel.
func GTHSteadyStateForTest(t *testing.T, c *CTMC) []float64 {
	t.Helper()
	p, err := c.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.target)
	local := make(map[int]int, n)
	for i, s := range p.target {
		local[s] = i
	}
	a := make([]float64, n*n)
	for i, s := range p.target {
		for _, e := range c.Rows[s] {
			if j, ok := local[e.Col]; ok {
				a[i*n+j] += e.Rate
			}
		}
	}
	y := make([]float64, n)
	if !gth(n, a, y) {
		t.Fatal("gth: bottom component is reducible")
	}
	pi := make([]float64, c.N)
	for i, s := range p.target {
		pi[s] = y[i]
	}
	return pi
}

// RandomChainForTest hands randomChain to the external tests.
func RandomChainForTest(t *testing.T, r *rand.Rand, n int) *CTMC { return randomChain(t, r, n) }

// randomChain builds a strongly connected chain on n states — a ring
// plus random chords, all at random rates — entered from one transient
// start state, so the bottom component is a proper subset of the chain.
func randomChain(t testing.TB, r *rand.Rand, n int) *CTMC {
	t.Helper()
	rate := func() rates.Rate { return rates.ExpRate(0.1 + 10*r.Float64()) }
	edges := []edge{{n, r.Intn(n), "a", rate()}}
	for s := 0; s < n; s++ {
		edges = append(edges, edge{s, (s + 1) % n, "a", rate()})
		for k := 0; k < 2; k++ {
			if to := r.Intn(n); to != s && to != (s+1)%n {
				edges = append(edges, edge{s, to, "a", rate()})
			}
		}
	}
	c, err := Build(system(n+1, n, edges))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// namedChain is a test chain with its name.
type namedChain struct {
	name string
	c    *CTMC
}

// scalarReferenceChains are the chains TestSteadyStateMatchesScalarReference
// solves, which also seed FuzzSteadyState: a hand-assembled chain with no
// rate slots or contribution terms, and twenty random chains of 3 to 13
// states.
func scalarReferenceChains(tb testing.TB) []namedChain {
	r := rand.New(rand.NewSource(7))
	// 0 ⇄ 1 ⇄ 2 with a 2 → 0 shortcut, assembled without Build.
	chains := []namedChain{{"hand-assembled", &CTMC{
		N: 3,
		Rows: [][]Entry{
			{{Col: 1, Rate: 2}},
			{{Col: 0, Rate: 0.5}, {Col: 2, Rate: 3}},
			{{Col: 0, Rate: 1.25}, {Col: 1, Rate: 0.75}},
		},
		Exit:    []float64{2, 3.5, 2},
		Initial: []float64{1, 0, 0},
	}}}
	for i := 0; i < 20; i++ {
		chains = append(chains, namedChain{fmt.Sprintf("random-%d", i), randomChain(tb, r, 2+r.Intn(11))})
	}
	return chains
}

// TestSteadyStateMatchesScalarReference pins the one-lane batch that
// every SteadyStateTraced solve runs to referenceGS bit for bit — vector
// and sweep count — on random small chains, on a hand-assembled chain
// with no rate slots or contribution terms.
func TestSteadyStateMatchesScalarReference(t *testing.T) {
	for _, nc := range scalarReferenceChains(t) {
		name, c := nc.name, nc.c
		pi, trace, err := c.SteadyStateTraced(SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, iters := referenceGS(c, 1e-12, 200000, true)
		if got := trace.Attempts[0].Iterations; got != iters {
			t.Errorf("%s: %d sweeps, reference %d", name, got, iters)
		}
		for s := range want {
			if math.Float64bits(pi[s]) != math.Float64bits(want[s]) {
				t.Fatalf("%s: state %d: %v, reference %v", name, s, pi[s], want[s])
			}
		}
	}
}

// referenceBuild is the map-based chain extraction Build replaced, kept
// as its oracle: per-state maps accumulate absorption distributions, row
// entries and rate-term lists, and sort.Slice orders them. Build must
// reproduce its every field bit for bit.
func referenceBuild(l *lts.LTS) (*CTMC, error) {
	n := l.NumStates
	c := &CTMC{l: l}

	// Classify states.
	isVanishing := make([]bool, n)
	for s := 0; s < n; s++ {
		sp := l.Out(s)
		for k := 0; k < sp.Len(); k++ {
			if sp.Rate(k).Kind == rates.Immediate {
				isVanishing[s] = true
				break
			}
		}
	}

	// Immediate branch structure per vanishing state.
	c.vanPos = make([]int, n)
	for i := range c.vanPos {
		c.vanPos[i] = -1
	}
	branchesOf := make([][]branch, n)
	numVanishing := 0
	for s := 0; s < n; s++ {
		if !isVanishing[s] {
			continue
		}
		numVanishing++
		sp := l.Out(s)
		maxPrio := math.MinInt32
		for k := 0; k < sp.Len(); k++ {
			if r := sp.Rate(k); r.Kind == rates.Immediate && r.Priority > maxPrio {
				maxPrio = r.Priority
			}
		}
		var brs []branch
		total := 0.0
		base := l.EdgeBase(s)
		for k := 0; k < sp.Len(); k++ {
			if r := sp.Rate(k); r.Kind == rates.Immediate && r.Priority == maxPrio {
				brs = append(brs, branch{dst: int(sp.Dst[k]), prob: r.Weight, ltsTrans: base + k})
				total += r.Weight
			}
		}
		for i := range brs {
			brs[i].prob /= total
		}
		branchesOf[s] = brs
	}

	// Topological order of the vanishing subgraph (Kahn); a leftover node
	// means a timeless trap. All scans run in ascending state order so the
	// elimination order — and with it every floating-point accumulation
	// downstream — is the same on every run.
	indeg := make([]int, n)
	for s := 0; s < n; s++ {
		for _, b := range branchesOf[s] {
			if isVanishing[b.dst] {
				indeg[b.dst]++
			}
		}
	}
	var queue []int
	for s := 0; s < n; s++ {
		if isVanishing[s] && indeg[s] == 0 {
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		c.vanPos[s] = len(c.vanishing)
		c.vanishing = append(c.vanishing, s)
		c.branches = append(c.branches, branchesOf[s])
		for _, b := range branchesOf[s] {
			if isVanishing[b.dst] {
				indeg[b.dst]--
				if indeg[b.dst] == 0 {
					queue = append(queue, b.dst)
				}
			}
		}
	}
	if len(c.vanishing) != numVanishing {
		return nil, ErrTimelessTrap
	}

	// Absorption distributions of vanishing states over tangible states,
	// in reverse topological order. Each distribution is kept as a slice
	// sorted by target state, so later accumulations visit targets in a
	// canonical order (map iteration would reorder the float sums from run
	// to run and perturb the last bits of the steady-state solution).
	absorb := make([][]absorbEntry, len(c.vanishing))
	for i := len(c.vanishing) - 1; i >= 0; i-- {
		dist := make(map[int]float64, 4)
		for _, b := range c.branches[i] {
			if isVanishing[b.dst] {
				for _, ae := range absorb[c.vanPos[b.dst]] {
					dist[ae.tgt] += b.prob * ae.prob
				}
			} else {
				dist[b.dst] += b.prob
			}
		}
		absorb[i] = referenceSortedAbsorb(dist)
	}

	// Index tangible states.
	c.ctmcIndex = make([]int, n)
	for s := 0; s < n; s++ {
		if isVanishing[s] {
			c.ctmcIndex[s] = -1
			continue
		}
		c.ctmcIndex[s] = len(c.TangibleOf)
		c.TangibleOf = append(c.TangibleOf, s)
	}
	c.N = len(c.TangibleOf)
	if c.N == 0 {
		return nil, ErrTimelessTrap
	}

	// Generator rows. When the LTS carries rate slots, the per-entry
	// contribution terms are recorded alongside the accumulated values, in
	// the exact accumulation order, so a batched solve can replay the
	// identical sequence of float additions at a point's slot values.
	c.numSlots = l.NumRateSlots()
	parametric := c.numSlots > 0
	var termsOf map[int][]rateTerm // per destination column, current state
	if parametric {
		c.termStart = append(c.termStart, 0)
	}
	c.Rows = make([][]Entry, c.N)
	c.Exit = make([]float64, c.N)
	for ci, s := range c.TangibleOf {
		acc := make(map[int]float64, 4)
		if parametric {
			termsOf = make(map[int][]rateTerm, 4)
		}
		sp := l.Out(s)
		base := l.EdgeBase(s)
		for k := 0; k < sp.Len(); k++ {
			r := sp.Rate(k)
			dst := int(sp.Dst[k])
			switch r.Kind {
			case rates.Exp:
				c.expEdges = append(c.expEdges, expEdge{src: s, dst: dst, ltsTrans: base + k})
				c.expRate = append(c.expRate, r.Lambda)
				if parametric {
					c.expSlots = append(c.expSlots, int32(r.Slot))
				}
				if isVanishing[dst] {
					for _, ae := range absorb[c.vanPos[dst]] {
						col := c.ctmcIndex[ae.tgt]
						acc[col] += r.Lambda * ae.prob
						if parametric {
							termsOf[col] = append(termsOf[col], makeTerm(r, ae.prob))
						}
					}
				} else {
					col := c.ctmcIndex[dst]
					acc[col] += r.Lambda
					if parametric {
						termsOf[col] = append(termsOf[col], makeTerm(r, 1))
					}
				}
			case rates.Immediate:
				// Impossible: s is tangible.
			default:
				return nil, fmt.Errorf("%w (state %d, label %q, rate %v)",
					ErrNotRated, s, l.LabelName(int(sp.Label[k])), r)
			}
		}
		row := make([]Entry, 0, len(acc))
		for col, rate := range acc {
			if col == ci {
				continue // self-loops do not affect the steady state
			}
			row = append(row, Entry{Col: col, Rate: rate})
		}
		// Canonical column order: the solver and the transient iteration sum
		// row entries in sequence, so a stable order keeps results
		// reproducible bit for bit (and the ascending access pattern is
		// friendlier to the flattened Gauss-Seidel sweeps).
		sort.Slice(row, func(a, b int) bool { return row[a].Col < row[b].Col })
		for _, e := range row {
			c.Exit[ci] += e.Rate
		}
		c.Rows[ci] = row
		if parametric {
			// Flatten the kept entries' term lists in the row's final
			// (column-ascending) order. Self-loop terms are dropped with
			// their entries.
			for _, e := range row {
				c.terms = append(c.terms, termsOf[e.Col]...)
				c.termStart = append(c.termStart, int32(len(c.terms)))
			}
		}
	}

	// Initial distribution.
	c.Initial = make([]float64, c.N)
	if isVanishing[l.Initial] {
		for _, ae := range absorb[c.vanPos[l.Initial]] {
			c.Initial[c.ctmcIndex[ae.tgt]] += ae.prob
		}
	} else {
		c.Initial[c.ctmcIndex[l.Initial]] = 1
	}
	return c, nil
}

// referenceSortedAbsorb converts an absorption map to a slice sorted by
// target.
func referenceSortedAbsorb(dist map[int]float64) []absorbEntry {
	out := make([]absorbEntry, 0, len(dist))
	for t, p := range dist {
		out = append(out, absorbEntry{tgt: t, prob: p})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].tgt < out[b].tgt })
	return out
}

// BuildMatchesReferenceForTest builds l with Build and with
// referenceBuild and reports the first field that differs: the rows,
// exit rates, initial distribution, tangible indexing, exponential edges,
// vanishing order, branches and rate terms, floats compared by bits.
// Both builds failing with the same error is a match. A parametric system
// is compared again with its slots bound to constants
// (lts.BindSlotsForTest), and the rates a batched solve gathers at those
// values must equal the bound chain's rows, and its inverse exit rates the
// reciprocals of the bound chain's exit rates.
func BuildMatchesReferenceForTest(l *lts.LTS) error {
	got, gErr := Build(l)
	want, wErr := referenceBuild(l)
	if gErr != nil || wErr != nil {
		if fmt.Sprint(gErr) != fmt.Sprint(wErr) {
			return fmt.Errorf("error %v, reference %v", gErr, wErr)
		}
		return nil
	}
	if err := diffChains(got, want); err != nil {
		return err
	}
	if want.numSlots == 0 {
		return nil
	}
	values := make([]float64, want.numSlots)
	for k := range values {
		values[k] = 0.5 + 0.75*float64(k)
	}
	bound := lts.BindSlotsForTest(l, values)
	boundGot, gErr := Build(bound)
	boundWant, wErr := referenceBuild(bound)
	if gErr != nil || wErr != nil {
		return fmt.Errorf("slots bound: error %v, reference %v", gErr, wErr)
	}
	if err := diffChains(boundGot, boundWant); err != nil {
		return fmt.Errorf("slots bound: %w", err)
	}
	rows, invExit, err := got.LaneRatesForTest(values)
	if err != nil {
		return nil // no single component of two or more states to gather
	}
	for ci, row := range rows {
		if row == nil {
			continue
		}
		for j, e := range row {
			if w := boundGot.Rows[ci][j]; e.Col != w.Col || !sameBits(e.Rate, w.Rate) {
				return fmt.Errorf("lane row %d entry %d: %+v, slots bound %+v", ci, j, e, w)
			}
		}
		if !sameBits(invExit[ci], 1/boundGot.Exit[ci]) {
			return fmt.Errorf("lane inverse exit %d: %v, slots bound 1/%v", ci, invExit[ci], boundGot.Exit[ci])
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffChains compares every structural and rate field of two chains.
func diffChains(got, want *CTMC) error {
	if got.N != want.N || len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("N %d (%d rows), reference %d (%d rows)", got.N, len(got.Rows), want.N, len(want.Rows))
	}
	for ci := range want.Rows {
		g, w := got.Rows[ci], want.Rows[ci]
		if len(g) != len(w) {
			return fmt.Errorf("row %d: %d entries, reference %d", ci, len(g), len(w))
		}
		for j := range w {
			if g[j].Col != w[j].Col || !sameBits(g[j].Rate, w[j].Rate) {
				return fmt.Errorf("row %d entry %d: %+v, reference %+v", ci, j, g[j], w[j])
			}
		}
		if !sameBits(got.Exit[ci], want.Exit[ci]) {
			return fmt.Errorf("exit %d: %v, reference %v", ci, got.Exit[ci], want.Exit[ci])
		}
		if !sameBits(got.Initial[ci], want.Initial[ci]) {
			return fmt.Errorf("initial %d: %v, reference %v", ci, got.Initial[ci], want.Initial[ci])
		}
	}
	if fmt.Sprint(got.TangibleOf, got.ctmcIndex, got.vanishing, got.vanPos) !=
		fmt.Sprint(want.TangibleOf, want.ctmcIndex, want.vanishing, want.vanPos) {
		return fmt.Errorf("tangible or vanishing indexing differs")
	}
	if len(got.expEdges) != len(want.expEdges) || len(got.expRate) != len(want.expRate) {
		return fmt.Errorf("%d exponential edges (%d rates), reference %d (%d rates)",
			len(got.expEdges), len(got.expRate), len(want.expEdges), len(want.expRate))
	}
	for i, w := range want.expEdges {
		g := got.expEdges[i]
		if g != w || !sameBits(got.expRate[i], want.expRate[i]) {
			return fmt.Errorf("exponential edge %d: %+v at rate %v, reference %+v at %v", i, g, got.expRate[i], w, want.expRate[i])
		}
	}
	if len(got.branches) != len(want.branches) {
		return fmt.Errorf("%d branch lists, reference %d", len(got.branches), len(want.branches))
	}
	for i, wb := range want.branches {
		gb := got.branches[i]
		if len(gb) != len(wb) {
			return fmt.Errorf("vanishing %d: %d branches, reference %d", i, len(gb), len(wb))
		}
		for k := range wb {
			if gb[k].dst != wb[k].dst || gb[k].ltsTrans != wb[k].ltsTrans || !sameBits(gb[k].prob, wb[k].prob) {
				return fmt.Errorf("vanishing %d branch %d: %+v, reference %+v", i, k, gb[k], wb[k])
			}
		}
	}
	if got.numSlots != want.numSlots || fmt.Sprint(got.termStart, got.expSlots) != fmt.Sprint(want.termStart, want.expSlots) {
		return fmt.Errorf("slots %d, reference %d, or term offsets differ", got.numSlots, want.numSlots)
	}
	if len(got.terms) != len(want.terms) {
		return fmt.Errorf("%d rate terms, reference %d", len(got.terms), len(want.terms))
	}
	for i, w := range want.terms {
		if g := got.terms[i]; g.slot != w.slot || !sameBits(g.coeff, w.coeff) {
			return fmt.Errorf("rate term %d: %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

// PlainSweepsForTest is the sweep count of a default-tolerance solve of c
// by plain Gauss-Seidel, without extrapolation: the count the solver's
// extrapolation is measured against. It is 0 when 200,000 sweeps do not
// converge.
func PlainSweepsForTest(c *CTMC) int {
	_, iters := referenceGS(c, DefaultTolerance, 200000, false)
	return iters
}
