package ctmc

import (
	"errors"
	"math"
	"testing"

	"repro/internal/lts"
	"repro/internal/rates"
)

// steadyStateInput decodes FuzzSteadyState's bytes: byte 0 gives the
// state count n (2 to 64), byte 1 the point count K (1 to 8), then one
// byte per point gives its value of the one rate slot (1/4 to 4), then
// one 4-byte record per extra edge: source, target, rate (1/4 to about
// 4.2) and a byte whose low bit binds the edge to the slot. States 0 to
// n−2 lie on a ring at rate 1, and state n−1 starts the chain with an
// edge into the ring bound to the slot, so the chain has a slot and a
// bottom component reachable from its start.
func steadyStateInput(tb testing.TB, data []byte) (*CTMC, [][]float64, bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	n, K := 2+int(data[0])%63, 1+int(data[1])%8
	data = data[2:]
	if len(data) < K {
		return nil, nil, false
	}
	points := make([][]float64, K)
	for k := range points {
		points[k] = []float64{math.Exp2((float64(data[k]) - 127.5) / 64)}
	}
	data = data[K:]
	var edges []edge
	add := func(from, to int, r rates.Rate) {
		if from != to {
			edges = append(edges, edge{from, to, "a", r})
		}
	}
	for s := 0; s < n-1; s++ {
		add(s, (s+1)%(n-1), rates.ExpRate(1))
	}
	add(n-1, 0, rates.ExpSlot(1, 1))
	for ; len(data) >= 4; data = data[4:] {
		r := rates.ExpRate(0.25 + float64(data[2])/64)
		if data[3]%2 == 1 {
			r = rates.ExpSlot(1, r.Lambda)
		}
		add(int(data[0])%n, int(data[1])%n, r)
	}
	c, err := Build(system(n, n-1, edges))
	if err != nil {
		tb.Fatal(err)
	}
	return c, points, true
}

// steadyStateSeed encodes a chain in FuzzSteadyState's format at two
// points: n+1 states, the chain's states first and a start state last,
// every generator entry as an extra edge at its rate clamped to the
// format's range, every third one bound to the slot.
func steadyStateSeed(c *CTMC) []byte {
	data := []byte{byte(c.N - 1), 1, 80, 200}
	i := 0
	for s, row := range c.Rows {
		for _, e := range row {
			rate := math.Round(math.Min(math.Max((e.Rate-0.25)*64, 0), 255))
			data = append(data, byte(s), byte(e.Col), byte(rate), byte(min(i%3, 1)^1))
			i++
		}
	}
	return data
}

// FuzzSteadyState decodes bytes into a small chain with one rate slot and
// one to eight points (steadyStateInput) and requires every lane of
// SolveBatchLanes to equal, bit for bit, the solo SteadyStateTraced solve
// of the chain with the slot bound to the lane's point and referenceGS on
// that chain — or to fail as the solo solve does — and each converged
// column to lie within 1e-9 relative of the exact GTH solve. It is seeded
// with the chains of TestSteadyStateMatchesScalarReference.
func FuzzSteadyState(f *testing.F) {
	for _, nc := range scalarReferenceChains(f) {
		f.Add(steadyStateSeed(nc.c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, points, ok := steadyStateInput(t, data)
		if !ok {
			return
		}
		out, laneErrs, err := c.SolveBatchLanes(points, SolveOptions{})
		for k, pt := range points {
			bound, berr := Build(lts.BindSlotsForTest(c.l, pt))
			if berr != nil {
				t.Fatal(berr)
			}
			pi, trace, serr := bound.SteadyStateTraced(SolveOptions{})
			if err != nil {
				// A chain with several bottom components fails as a
				// whole, solo and batched alike.
				if serr == nil || err.Error() != serr.Error() {
					t.Fatalf("point %d: batch error %v, solo error %v", k, err, serr)
				}
				continue
			}
			if serr != nil {
				var ce, lane *ConvergenceError
				if !errors.As(serr, &ce) || !errors.As(laneErrs[k], &lane) ||
					lane.Iterations != ce.Iterations || !sameBits(lane.Residual, ce.Residual) {
					t.Fatalf("point %d: lane error %v, solo error %v", k, laneErrs[k], serr)
				}
				continue
			}
			if laneErrs[k] != nil {
				t.Fatalf("point %d: lane failed (%v) where the solo solve converged", k, laneErrs[k])
			}
			want, iters := referenceGS(bound, DefaultTolerance, 200000, true)
			if trace.Attempts[0].Iterations != iters {
				t.Fatalf("point %d: %d sweeps, reference %d", k, trace.Attempts[0].Iterations, iters)
			}
			gth := GTHSteadyStateForTest(t, bound)
			for s := range pi {
				if !sameBits(out[k][s], pi[s]) || !sameBits(pi[s], want[s]) {
					t.Fatalf("point %d state %d: lane %v, solo %v, reference %v", k, s, out[k][s], pi[s], want[s])
				}
				if math.Abs(pi[s]-gth[s]) > 1e-9*gth[s] {
					t.Fatalf("point %d state %d: %v, GTH %v", k, s, pi[s], gth[s])
				}
			}
		}
		if err != nil && !errors.Is(err, ErrMultipleBSCC) {
			t.Fatalf("batch error %v", err)
		}
	})
}
