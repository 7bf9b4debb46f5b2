package ctmc_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/rates"
)

// minimizedStreamingLTS generates the folded streaming system at the
// given buffer capacities with the awake period as a rate slot, exactly as
// a minimizing session does.
func minimizedStreamingLTS(t testing.TB, capacity int64) *lts.LTS {
	t.Helper()
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = capacity, capacity
	p.ParametricPeriod = true
	a, err := models.BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	ms := models.StreamingMeasures(p)
	l, err := lts.Generate(m, lts.GenerateOptions{
		Predicates: measure.StatePreds(ms),
		Fold:       &lts.FoldOptions{Observed: measure.ObservedMatcher(ms)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// randomRatedLTS draws a rated LTS on n states. About a third of the
// states are vanishing: immediate moves at one or two priority levels,
// only to higher-numbered states or to tangible ones, so immediate chains
// form but never cycle. The others carry exponential moves, some slotted,
// with self-loops and parallel edges, some through vanishing states.
func randomRatedLTS(r *rand.Rand, n int) *lts.LTS {
	l := lts.New(n)
	l.Initial = r.Intn(n)
	labels := []int{l.LabelIndex("a"), l.LabelIndex("b"), l.LabelIndex("c")}
	vanishing := make([]bool, n)
	for s := range vanishing {
		vanishing[s] = s < n-1 && r.Intn(3) == 0
	}
	for s := 0; s < n; s++ {
		moves := 1 + r.Intn(4)
		for k := 0; k < moves; k++ {
			label := labels[r.Intn(len(labels))]
			if vanishing[s] {
				dst := s + 1 + r.Intn(n-s-1)
				if r.Intn(2) == 0 {
					if dst = r.Intn(n); vanishing[dst] && dst <= s {
						dst = n - 1
					}
				}
				l.AddTransition(s, dst, label, rates.Inf(1+r.Intn(2), 0.5+r.Float64()))
				continue
			}
			rate := rates.ExpRate(0.1 + 5*r.Float64())
			if r.Intn(3) == 0 {
				rate = rates.ExpSlot(1+r.Intn(2), 0.1+5*r.Float64())
			}
			l.AddTransition(s, r.Intn(n), label, rate)
		}
	}
	return l
}

// TestBuildMatchesReference pins Build to the map-based reference
// extraction bit for bit — rows, exit rates, initial distribution,
// exponential edges, vanishing order, branches and Rebind terms, before
// and after a Rebind — on the Fig. 3 rpc chain, the minimized 10×10
// streaming chain and random rated LTSs with immediate chains and
// slotted rates.
func TestBuildMatchesReference(t *testing.T) {
	rpc := models.DefaultRPCParams()
	rpc.ParametricTimeout = true
	a, err := models.BuildRPCRevised(rpc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	rpcLTS, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type namedLTS struct {
		name string
		l    *lts.LTS
	}
	cases := []namedLTS{
		{"fig3-rpc", rpcLTS},
		{"minimized/streaming-10x10", minimizedStreamingLTS(t, 10)},
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		cases = append(cases, namedLTS{fmt.Sprintf("random-%d", i), randomRatedLTS(r, 2+r.Intn(40))})
	}
	built := 0
	for _, c := range cases {
		if err := ctmc.BuildMatchesReferenceForTest(c.l); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := ctmc.Build(c.l); err == nil {
			built++
		}
	}
	// Most random systems must build, or the comparison would only
	// exercise the error paths.
	if built < len(cases)/2 {
		t.Fatalf("only %d of %d systems built", built, len(cases))
	}
}

// streamingLTS generates the full (unminimized, unfolded) streaming
// system at the given buffer capacities, vanishing states included.
func streamingLTS(t testing.TB, capacity int64) *lts.LTS {
	t.Helper()
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = capacity, capacity
	p.ParametricPeriod = true
	a, err := models.BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestBuildAllocsScale gates Build's allocations: they may grow with the
// number of slab doublings, never with the number of states, so building
// the 12×12 streaming chain allocates at most 1.5× what the 6×6 one does
// — folded and minimized (every state tangible) and full (vanishing
// states eliminated by absorption).
func TestBuildAllocsScale(t *testing.T) {
	for _, family := range []struct {
		name string
		lts  func(testing.TB, int64) *lts.LTS
	}{{"minimized", minimizedStreamingLTS}, {"full", streamingLTS}} {
		var counts [2]float64
		var states [2]int
		for i, capacity := range []int64{6, 12} {
			l := family.lts(t, capacity)
			c, err := ctmc.Build(l)
			if err != nil {
				t.Fatal(err)
			}
			states[i] = c.N + c.NumVanishing()
			counts[i] = testing.AllocsPerRun(3, func() {
				if _, err := ctmc.Build(l); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s: %d states %.0f allocs, %d states %.0f allocs", family.name, states[0], counts[0], states[1], counts[1])
		if counts[1] > 1.5*counts[0] {
			t.Errorf("%s: Build allocates %.0f times at 12×12 (%d states), over 1.5× the %.0f at 6×6 (%d states)",
				family.name, counts[1], states[1], counts[0], states[0])
		}
	}
}

// TestCloneIsolation pins what a clone shares: the exponential edges are
// one slice across clones and only their rates are private, so rebinding
// a clone to another point must leave the original's throughputs and
// measure values bit-identical — on the rpc chain, whose vanishing
// states route rates through immediate branches, and on the minimized
// 12×12 streaming chain.
func TestCloneIsolation(t *testing.T) {
	rpc := models.DefaultRPCParams()
	rpc.ParametricTimeout = true
	stream := models.DefaultStreamingParams()
	stream.APCapacity, stream.ClientCapacity = 12, 12
	stream.ParametricPeriod = true
	rpcMeasures := models.RPCMeasures(rpc)
	for _, tc := range []struct {
		name     string
		lts      func(t *testing.T) *lts.LTS
		measures []measure.Measure
		other    []float64
	}{
		{"rpc", func(t *testing.T) *lts.LTS {
			a, err := models.BuildRPCRevised(rpc)
			if err != nil {
				t.Fatal(err)
			}
			m, err := elab.Elaborate(a)
			if err != nil {
				t.Fatal(err)
			}
			l, err := lts.Generate(m, lts.GenerateOptions{Predicates: measure.StatePreds(rpcMeasures)})
			if err != nil {
				t.Fatal(err)
			}
			return l
		}, rpcMeasures, []float64{1 / 7.5}},
		{"streaming-12x12-minimized", func(t *testing.T) *lts.LTS { return minimizedStreamingLTS(t, 12) },
			models.StreamingMeasures(stream), []float64{1 / 400.0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := ctmc.Build(tc.lts(t))
			if err != nil {
				t.Fatal(err)
			}
			pi, _, err := c.SteadyStateTraced(ctmc.SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			all := func(string) bool { return true }
			before := c.Throughput(pi, all, nil)
			values, err := evalMeasures(tc.measures, c, pi)
			if err != nil {
				t.Fatal(err)
			}
			clone := c.Clone()
			if err := clone.Rebind(tc.other); err != nil {
				t.Fatal(err)
			}
			if got := clone.Throughput(pi, all, nil); got == before {
				t.Fatalf("rebinding the clone left its throughput at %v: the fixture does not exercise the rates", got)
			}
			if after := c.Throughput(pi, all, nil); math.Float64bits(after) != math.Float64bits(before) {
				t.Errorf("original throughput moved from %v to %v after a clone's Rebind", before, after)
			}
			again, err := evalMeasures(tc.measures, c, pi)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range values {
				if math.Float64bits(again[name]) != math.Float64bits(v) {
					t.Errorf("measure %s moved from %v to %v after a clone's Rebind", name, v, again[name])
				}
			}
		})
	}
}

// TestCloneAllocs checks what Clone copies on the minimized 12×12
// streaming chain. Directly: the clone shares the exponential edges and
// owns the exponential-edge rates, exit rates and generator entries that
// Rebind rewrites. As a byte bound: 16 B per generator entry, 8 B per
// exponential-edge rate, and per state its exit rate and its 24-byte row
// header, plus a 64 KB slack for the chain header and size-class and page
// rounding. Copying the exponential edges as well would add 24 B per edge,
// about 320 KB on this chain, far past the slack.
func TestCloneAllocs(t *testing.T) {
	c, err := ctmc.Build(minimizedStreamingLTS(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	edges, rates, exit, rows := ctmc.CloneSharingForTest(c, c.Clone())
	if !edges {
		t.Error("Clone copied the exponential edges; clones must share them")
	}
	if rates || exit || rows {
		t.Errorf("Clone shares state Rebind rewrites: expRate %v, Exit %v, Rows %v", rates, exit, rows)
	}
	entries := 0
	for _, row := range c.Rows {
		entries += len(row)
	}
	const runs, slack = 8, 64 << 10
	var clones [runs]*ctmc.CTMC
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range clones {
		clones[i] = c.Clone()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	bound := uint64(16*entries + 8*c.NumExpEdges() + (8+24)*c.N + slack)
	t.Logf("%d states, %d entries, %d exp edges: Clone allocates %d B, bound %d B", c.N, entries, c.NumExpEdges(), per, bound)
	if per > bound {
		t.Errorf("Clone allocates %d B, over the %d B bound", per, bound)
	}
}

// evalMeasures compiles ms against c and evaluates them on pi.
func evalMeasures(ms []measure.Measure, c *ctmc.CTMC, pi []float64) (map[string]float64, error) {
	cm, err := measure.Compile(ms, c)
	if err != nil {
		return nil, err
	}
	return cm.Eval(c, pi), nil
}
