//go:build amd64

package ctmc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rates"
)

// kernelEdge is one transition of a sweep-kernel test chain: from → to at
// the given anchor rate, bound to rate slot slot when slot > 0.
type kernelEdge struct {
	from, to int
	rate     float64
	slot     int
}

// kernelChain builds the chain of the given edges on n states. Callers
// include the ring 0 → 1 → … → n-1 → 0, so every state is in the one
// bottom component. Self-loops are dropped; parallel edges merge into one
// generator entry.
func kernelChain(tb testing.TB, n int, edges []kernelEdge) *CTMC {
	tb.Helper()
	var list []edge
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		r := rates.ExpRate(e.rate)
		if e.slot > 0 {
			r = rates.ExpSlot(e.slot, e.rate)
		}
		list = append(list, edge{e.from, e.to, "a", r})
	}
	c, err := Build(system(n, 0, list))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// degreeChain draws a kernelChain on n ≥ 10 states whose rows have
// in-degrees from 1 to 9 (the ring edge plus up to eight distinct
// sources), so rows of every in-degree remainder mod 4 sit next to each
// other. About one edge in three is bound to one of the slots rate slots.
func degreeChain(tb testing.TB, r *rand.Rand, n, slots int) *CTMC {
	tb.Helper()
	var edges []kernelEdge
	add := func(from, to int) {
		e := kernelEdge{from: from, to: to, rate: 0.1 + 10*r.Float64()}
		if r.Intn(3) == 0 {
			e.slot = 1 + r.Intn(slots)
		}
		edges = append(edges, e)
	}
	for j := 0; j < n; j++ {
		pred := (j + n - 1) % n
		add(pred, j)
		for _, from := range r.Perm(n)[:r.Intn(9)] {
			if from != j && from != pred {
				add(from, j)
			}
		}
	}
	// Make sure every slot is bound somewhere, so the chain has slots.
	for k := 1; k <= slots; k++ {
		edges = append(edges, kernelEdge{from: 0, to: 1 % n, rate: 1, slot: k})
	}
	return kernelChain(tb, n, edges)
}

// kernelRun solves the points on c in four-lane groups, as
// SolveBatchLanes does, with the vectorized kernel on or off, and returns
// every lane's result: column, sweep count and residual, or failure.
func kernelRun(tb testing.TB, c *CTMC, points [][]float64, avx bool) []laneResult {
	tb.Helper()
	prev := haveAVX
	haveAVX = avx
	defer func() { haveAVX = prev }()
	plan, err := c.ensurePlan()
	if err != nil {
		tb.Fatal(err)
	}
	var out []laneResult
	for off := 0; off < len(points); off += BatchLanes {
		bc := c.fillBatch(plan, points[off:min(off+BatchLanes, len(points))])
		if avx && (!bc.allPos || len(bc.inOff) == 0) {
			tb.Fatal("the vectorized kernel would decline the batch")
		}
		res, err := bc.gaussSeidelBatch(solveDefaults(SolveOptions{}))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, res...)
	}
	return out
}

// requireKernelIdentity runs the points through the vectorized and the
// scalar four-lane kernel and requires every lane to agree bit for bit:
// the column, the sweep count at which the lane froze and its residual,
// or the same failure. It returns the sweep counts.
func requireKernelIdentity(tb testing.TB, c *CTMC, points [][]float64) []int {
	tb.Helper()
	vec := kernelRun(tb, c, points, true)
	ref := kernelRun(tb, c, points, false)
	iters := make([]int, len(ref))
	for k := range ref {
		v, s := vec[k], ref[k]
		if (v.err == nil) != (s.err == nil) {
			tb.Fatalf("lane %d: vectorized error %v, scalar error %v", k, v.err, s.err)
		}
		if s.err != nil {
			if v.err.Iterations != s.err.Iterations || math.Float64bits(v.err.Residual) != math.Float64bits(s.err.Residual) {
				tb.Fatalf("lane %d: vectorized failure %v, scalar %v", k, v.err, s.err)
			}
			iters[k] = s.err.Iterations
			continue
		}
		if v.st.Iterations != s.st.Iterations {
			tb.Fatalf("lane %d: vectorized froze after %d sweeps, scalar after %d", k, v.st.Iterations, s.st.Iterations)
		}
		if math.Float64bits(v.st.Residual) != math.Float64bits(s.st.Residual) {
			tb.Fatalf("lane %d: vectorized residual %v, scalar %v", k, v.st.Residual, s.st.Residual)
		}
		for j := range s.x {
			if math.Float64bits(v.x[j]) != math.Float64bits(s.x[j]) {
				tb.Fatalf("lane %d row %d: vectorized %v, scalar %v (must be bit-identical)", k, j, v.x[j], s.x[j])
			}
		}
		iters[k] = s.st.Iterations
	}
	return iters
}

// TestSweepKernelEveryRemainder pins the vectorized kernel to the scalar
// one bit for bit on random chains with rate slots whose rows have
// in-degrees 1 to 9, so every remainder mod 4 of the unrolled inflow
// loop, with and without full quads, runs beside the others. Each chain
// is solved at 1 to 8 random points spread over two orders of magnitude,
// so lanes of one group freeze at different sweeps.
func TestSweepKernelEveryRemainder(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX support on this machine")
	}
	r := rand.New(rand.NewSource(44))
	var degrees [10]int
	staggered := 0
	for i := 0; i < 24; i++ {
		n, slots := 10+r.Intn(31), 1+r.Intn(3)
		c := degreeChain(t, r, n, slots)
		plan, err := c.ensurePlan()
		if err != nil {
			t.Fatal(err)
		}
		for j := range plan.target {
			degrees[min(plan.inStart[j+1]-plan.inStart[j], 9)]++
		}
		K := 1 + i%8
		points := make([][]float64, K)
		for k := range points {
			points[k] = make([]float64, slots)
			for s := range points[k] {
				points[k][s] = math.Exp(4 * (r.Float64() - 0.5))
			}
		}
		t.Run(fmt.Sprintf("chain-%d/n=%d/%d-points", i, n, K), func(t *testing.T) {
			iters := requireKernelIdentity(t, c, points)
			for k := 1; k < len(iters); k++ {
				if iters[k] != iters[0] {
					staggered++
					break
				}
			}
		})
	}
	for d := 1; d <= 9; d++ {
		if degrees[d] == 0 {
			t.Errorf("premise broken: no row of in-degree %d", d)
		}
	}
	if staggered == 0 {
		t.Error("premise broken: no batch froze its lanes at different sweeps")
	}
}

// FuzzSweepKernel decodes bytes into a small chain with rate slots and up
// to eight rate points and requires the vectorized and scalar kernels to
// agree bit for bit on it. Byte 0 gives the state count (2 to 17), byte 1
// the slot count (1 to 3), byte 2 the point count (1 to 8); then one byte
// per slot per point (slot values from 1/16 to 16), then one 4-byte
// record per extra edge: source, target, rate and slot (0 for a constant
// rate). The ring 0 → 1 → … → 0 at rate 1 keeps the chain strongly
// connected.
func FuzzSweepKernel(f *testing.F) {
	if !haveAVX {
		f.Skip("no AVX support on this machine")
	}
	// Two states at one point. Six states at two points, state 5 of
	// in-degree 5: one single edge and a quad. Ten states at eight
	// points, state j of in-degree j for j = 1..9, the extra sources
	// after j in ring order so that most inflow is last sweep's. Three
	// states, three slots, four points.
	f.Add([]byte{0, 0, 0, 128})
	f.Add([]byte{4, 0, 1, 100, 160,
		0, 5, 50, 1, 1, 5, 200, 0, 2, 5, 9, 1, 3, 5, 77, 0, 5, 2, 30, 0, 4, 1, 120, 1})
	ten := []byte{8, 0, 7, 10, 40, 80, 120, 160, 200, 240, 255}
	for j := 1; j <= 9; j++ {
		for m := 1; m < j; m++ {
			ten = append(ten, byte((j+m)%10), byte(j), byte(17*m+3*j), byte(m%2))
		}
	}
	f.Add(ten)
	f.Add([]byte{1, 2, 3, 1, 90, 200, 128, 128, 128, 250, 20, 64, 60, 30, 140,
		0, 2, 33, 3, 2, 1, 99, 2, 1, 0, 180, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, slots, K := 2+int(data[0])%16, 1+int(data[1])%3, 1+int(data[2])%8
		data = data[3:]
		if len(data) < K*slots {
			return
		}
		points := make([][]float64, K)
		for k := range points {
			points[k] = make([]float64, slots)
			for s := range points[k] {
				points[k][s] = math.Exp2((float64(data[0]) - 127.5) / 32)
				data = data[1:]
			}
		}
		edges := make([]kernelEdge, 0, n+slots+len(data)/4)
		for s := 0; s < n; s++ {
			edges = append(edges, kernelEdge{from: s, to: (s + 1) % n, rate: 1})
		}
		for k := 1; k <= slots; k++ {
			edges = append(edges, kernelEdge{from: 0, to: 1, rate: 1, slot: k})
		}
		for ; len(data) >= 4; data = data[4:] {
			edges = append(edges, kernelEdge{
				from: int(data[0]) % n,
				to:   int(data[1]) % n,
				rate: 0.05 + float64(data[2])/16,
				slot: int(data[3]) % (slots + 1),
			})
		}
		requireKernelIdentity(t, kernelChain(t, n, edges), points)
	})
}
