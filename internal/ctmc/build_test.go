package ctmc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/rates"
	"repro/internal/statespace"
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
	initial := r.Intn(n)
	syms := statespace.NewSymbols()
	labels := []int32{int32(syms.Intern("a")), int32(syms.Intern("b")), int32(syms.Intern("c"))}
	// States are drawn in order, so the edges go straight into their rows.
	rows := statespace.NewRowBuilder()
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
				rows.Add(int32(dst), label, 0, rates.Inf(1+r.Intn(2), 0.5+r.Float64()))
				continue
			}
			rate := rates.ExpRate(0.1 + 5*r.Float64())
			if r.Intn(3) == 0 {
				rate = rates.ExpSlot(1+r.Intn(2), 0.1+5*r.Float64())
			}
			rows.Add(int32(r.Intn(n)), label, 0, rate)
		}
		rows.EndRow()
	}
	return lts.New(syms, initial, rows.CSR())
}

// TestBuildMatchesReference pins Build to the map-based reference
// extraction bit for bit — rows, exit rates, initial distribution,
// exponential edges, vanishing order, branches and rate terms, also with
// the slots bound to constants, where a batched lane's gathered rates
// must equal the bound chain's — on the Fig. 3 rpc chain, the minimized
// 10×10 streaming chain and random rated LTSs with immediate chains and
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
