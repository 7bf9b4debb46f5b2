package ctmc_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// oracleMeasures evaluates measures the way they were evaluated before
// they were compiled: every clause walks the chain through the per-call
// oracles.
func oracleMeasures(t *testing.T, ms []measure.Measure, c *ctmc.CTMC, pi []float64) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		if m.Derived {
			continue
		}
		total := 0.0
		for _, cl := range m.Clauses {
			pred := cl.Pred()
			switch cl.Kind {
			case measure.StateReward:
				p, err := ctmc.ProbLocallyEnabledOracleForTest(c, pi, pred)
				if err != nil {
					t.Fatalf("measure %s: %v", m.Name, err)
				}
				total += cl.Value * p
			case measure.TransReward:
				total += cl.Value * ctmc.ThroughputOracleForTest(c, pi, func(label string) bool {
					return lts.LabelInvolves(label, pred)
				}, nil)
			}
		}
		out[m.Name] = total
	}
	for _, m := range ms {
		if m.Derived {
			if den := out[m.Den]; den == 0 {
				out[m.Name] = 0
			} else {
				out[m.Name] = out[m.Num] / den
			}
		}
	}
	return out
}

// sameValues reports the first measure whose value differs from the
// oracle's in any bit.
func sameValues(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, oracle %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("measure %s = %v, oracle %v", name, g, w)
		}
	}
	return nil
}

// withRatio appends a derived measure over the first two base measures,
// so the ratio path is compared too.
func withRatio(ms []measure.Measure) []measure.Measure {
	return append(append([]measure.Measure(nil), ms...),
		measure.Measure{Name: "ratio", Derived: true, Num: ms[0].Name, Den: ms[1].Name})
}

// checkChainAgainstOracle solves c and compares, bit for bit, every
// measure through one Compile evaluated twice and through a Compile of
// the measure alone, every label's throughput under a non-unit weight,
// and every predicate's probability, with the per-call oracles. It returns the
// number of immediate firings the label selections hold.
func checkChainAgainstOracle(t *testing.T, c *ctmc.CTMC, l *lts.LTS, ms []measure.Measure) (vanFirings int) {
	t.Helper()
	pi, _, err := c.SteadyStateTraced(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracleMeasures(t, ms, c, pi)
	compiled, err := measure.Compile(ms, c)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := sameValues(compiled.Eval(c, pi, nil), want); err != nil {
			t.Errorf("Compile+Eval: %v", err)
		}
	}
	for _, m := range ms {
		if m.Derived {
			continue
		}
		alone, err := measure.Compile([]measure.Measure{m}, c)
		if err != nil {
			t.Fatal(err)
		}
		if v := alone.Eval(c, pi, nil)[m.Name]; math.Float64bits(v) != math.Float64bits(want[m.Name]) {
			t.Errorf("%s compiled alone = %v, oracle %v", m.Name, v, want[m.Name])
		}
	}
	weight := func(label string) float64 { return 0.5 + float64(len(label))/7 }
	for li := 0; li < l.NumLabels(); li++ {
		name := l.LabelName(li)
		match := func(label string) bool { return label == name }
		got := c.Throughput(pi, match, weight)
		if want := ctmc.ThroughputOracleForTest(c, pi, match, weight); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("throughput of %q = %v, oracle %v", name, got, want)
		}
		_, van := ctmc.SelectionSizesForTest(c.SelectAll(weight, match)[0])
		vanFirings += van
	}
	for _, name := range l.PredNames {
		got, err := c.ProbLocallyEnabled(pi, name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ctmc.ProbLocallyEnabledOracleForTest(c, pi, name)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("probability of %s = %v, oracle %v", name, got, want)
		}
	}
	return vanFirings
}

// TestCompiledMeasuresMatchOracle pins compiled measure evaluation to the
// per-call walk it replaced, bit for bit: on the unfolded rpc chain,
// whose immediate branches carry firings; on the folded streaming chain,
// whose TRANS_REWARD labels survive only as attributions on redirected
// edges; and on the points a session sweep evaluates at 1, 2 and 8
// workers through one chain and one compiled measure set, against the
// oracle on the chain built with the slots bound to each point.
func TestCompiledMeasuresMatchOracle(t *testing.T) {
	rpc := models.DefaultRPCParams()
	rpc.ParametricTimeout = true
	rpcMeasures := withRatio(models.RPCMeasures(rpc))
	stream := models.DefaultStreamingParams()
	stream.APCapacity, stream.ClientCapacity = 6, 6
	stream.ParametricPeriod = true
	streamMeasures := withRatio(models.StreamingMeasures(stream))

	t.Run("rpc-unfolded", func(t *testing.T) {
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
		c, err := ctmc.Build(l)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumVanishing() == 0 {
			t.Fatal("the unfolded rpc chain has no vanishing states")
		}
		if van := checkChainAgainstOracle(t, c, l, rpcMeasures); van == 0 {
			t.Error("no label selection holds an immediate firing: the fixture does not exercise branches")
		}
	})

	t.Run("streaming-folded", func(t *testing.T) {
		l := minimizedStreamingLTS(t, 6)
		if l.NumAux() == 0 {
			t.Fatal("the folded streaming system carries no attributions")
		}
		c, err := ctmc.Build(l)
		if err != nil {
			t.Fatal(err)
		}
		checkChainAgainstOracle(t, c, l, streamMeasures)
	})

	// Random rated systems branch several ways at several priorities, so
	// immediate firings carry probabilities below 1. Throughput needs no
	// stationary pi: a random one, with zeros, exercises the skips too.
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		weight := func(label string) float64 { return 0.5 + float64(len(label))/7 }
		checked := 0
		for i := 0; i < 100; i++ {
			l := randomRatedLTS(r, 2+r.Intn(40))
			c, err := ctmc.Build(l)
			if err != nil {
				continue
			}
			checked++
			pi := make([]float64, c.N)
			for ci := range pi {
				if r.Intn(4) > 0 {
					pi[ci] = r.Float64()
				}
			}
			for li := 0; li < l.NumLabels(); li++ {
				name := l.LabelName(li)
				match := func(label string) bool { return label == name }
				got := c.Throughput(pi, match, weight)
				if want := ctmc.ThroughputOracleForTest(c, pi, match, weight); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("system %d: throughput of %q = %v, oracle %v", i, name, got, want)
				}
			}
		}
		if checked < 50 {
			t.Fatalf("only %d of 100 systems built", checked)
		}
	})

	for _, tc := range []struct {
		name     string
		build    func() (*aemilia.ArchiType, error)
		measures []measure.Measure
		minimize bool
		points   []float64
	}{
		{"rpc", func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(rpc) },
			rpcMeasures, false, []float64{1 / 0.5, 1 / 2.0, 1 / 5.0, 1 / 7.5, 1 / 10.0, 1 / 15.0, 1 / 20.0, 1 / 30.0, 1 / 50.0}},
		{"streaming-minimized", func() (*aemilia.ArchiType, error) { return models.BuildStreaming(stream) },
			streamMeasures, true, []float64{1 / 5.0, 1 / 25.0, 1 / 50.0, 1 / 100.0, 1 / 200.0, 1 / 400.0, 1 / 800.0, 1 / 1600.0, 1 / 3200.0}},
	} {
		arch, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		points := make([][]float64, len(tc.points))
		for i, v := range tc.points {
			points[i] = []float64{v}
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("sweep-%s/workers-%d", tc.name, workers), func(t *testing.T) {
				s := pipeline.NewSession(pipeline.Spec{Arch: arch, Measures: tc.measures, Minimize: tc.minimize},
					pipeline.Config{Workers: workers})
				reports, err := s.Sweep(points)
				if err != nil {
					t.Fatal(err)
				}
				chain, err := s.Chain()
				if err != nil {
					t.Fatal(err)
				}
				for i, pt := range points {
					bound := boundChain(t, chain, pt)
					pi, _, err := bound.SteadyStateTraced(ctmc.SolveOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if err := sameValues(reports[i].Values, oracleMeasures(t, tc.measures, bound, pi)); err != nil {
						t.Errorf("point %d: %v", i, err)
					}
				}
			})
		}
	}
}

// TestBuildSizesExactly checks that the arrays Build sizes with its
// counting pass end exactly full, on the parametric rpc chain with its
// vanishing states, the minimized 12×12 streaming chain and random rated
// systems with immediate chains, self-loops and slotted rates.
func TestBuildSizesExactly(t *testing.T) {
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
	systems := map[string]*lts.LTS{"rpc": rpcLTS, "streaming-12x12-minimized": minimizedStreamingLTS(t, 12)}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		systems[fmt.Sprintf("random-%d", i)] = randomRatedLTS(r, 2+r.Intn(40))
	}
	built := 0
	for name, l := range systems {
		c, err := ctmc.Build(l)
		if err != nil {
			continue
		}
		built++
		for slab, lc := range ctmc.SlabSizesForTest(c) {
			if lc[0] != lc[1] {
				t.Errorf("%s: %s has length %d, capacity %d", name, slab, lc[0], lc[1])
			}
		}
	}
	if built < len(systems)/2 {
		t.Fatalf("only %d of %d systems built", built, len(systems))
	}
}
