package sim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/dist"
	"repro/internal/elab"
	"repro/internal/expr"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/rates"
	"repro/internal/sim"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/sim_fingerprints.json")

const fingerprintPath = "testdata/sim_fingerprints.json"

// simFingerprint is everything a simulation result exposes, floats as
// their IEEE-754 bits: equal fingerprints mean bit-identical results.
type simFingerprint struct {
	Events    int64             `json:"events"`
	Estimates map[string]string `json:"estimates"`
}

func fingerprintOf(res *sim.Result) simFingerprint {
	fp := simFingerprint{Events: res.Events, Estimates: make(map[string]string, len(res.Estimates))}
	for name, ci := range res.Estimates {
		fp.Estimates[name] = fmt.Sprintf("mean=%016x hw=%016x level=%016x n=%d",
			math.Float64bits(ci.Mean), math.Float64bits(ci.HalfWidth), math.Float64bits(ci.Level), ci.N)
	}
	return fp
}

// simCase is one simulation whose exact result is pinned.
type simCase struct {
	name  string
	model *elab.Model
	dists map[sim.Activity]dist.Distribution
	ms    []measure.Measure
	cfg   sim.Config // run-length fields only
}

func mustElaborate(t *testing.T, build func() (*elab.Model, error)) *elab.Model {
	t.Helper()
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func rpcSimModel(t *testing.T, p models.RPCParams) *elab.Model {
	return mustElaborate(t, func() (*elab.Model, error) {
		a, err := models.BuildRPCRevised(p)
		if err != nil {
			return nil, err
		}
		return elab.Elaborate(a)
	})
}

func streamingSimModel(t *testing.T, p models.StreamingParams) *elab.Model {
	return mustElaborate(t, func() (*elab.Model, error) {
		a, err := models.BuildStreaming(p)
		if err != nil {
			return nil, err
		}
		return elab.Elaborate(a)
	})
}

// simCases covers the rpc model under the timeout, trivial and
// predictive policies, both general and exponential (the Markovian model
// run with no overrides, as in the Sect. 5.1 validation), the general
// streaming model with and without DPM, and one long Fig. 6 run (frame
// deadlines, 100 ms awake period) whose hundreds of thousands of events
// are mostly zero-time steps through one-way vanishing states.
func simCases(t *testing.T) []simCase {
	rpcRun := sim.Config{RunLength: 3000, Warmup: 200, Replications: 3, Seed: 20040628}
	stRun := sim.Config{RunLength: 6000, Warmup: 500, Replications: 2, Seed: 7}
	var cases []simCase
	for _, pol := range []models.Policy{models.PolicyTimeout, models.PolicyTrivial, models.PolicyPredictive} {
		p := models.DefaultRPCParams()
		p.Policy = pol
		m := rpcSimModel(t, p)
		ms := models.RPCMeasures(p)
		cases = append(cases,
			simCase{"rpc/" + pol.String() + "/general", m, models.RPCGeneralDistributions(p), ms, rpcRun},
			simCase{"rpc/" + pol.String() + "/exponential", m, nil, ms, rpcRun},
		)
	}
	for _, withDPM := range []bool{true, false} {
		p := models.DefaultStreamingParams()
		p.WithDPM = withDPM
		name := "streaming/general/dpm"
		if !withDPM {
			name = "streaming/general/nodpm"
		}
		cases = append(cases, simCase{name, streamingSimModel(t, p),
			models.StreamingGeneralDistributions(p), models.StreamingMeasures(p), stRun})
	}
	p := models.DefaultStreamingParams()
	p.DeadlineDebtCap, p.DeadlineSlack = 12, 2
	cases = append(cases, simCase{"streaming/fig6/long", streamingSimModel(t, p),
		models.StreamingGeneralDistributions(p), models.StreamingMeasures(p),
		sim.Config{RunLength: 400000, Warmup: 2000, Replications: 4, Seed: 20040628}})
	return cases
}

// ringsCase is a product of four independent rings of six positions
// each, stepped up or down at rate 1: 1,296 states, met in a random
// order. The first monitored rings have a monitor per position and a
// measure of their position. With all four monitored, each state is its
// own reward class, and each position's clause sums the occupancies of
// 216 classes; with one, the states share six classes.
func ringsCase(t *testing.T, monitored int) simCase {
	const rings, size = 4, 6
	n := expr.Ref("n")
	step := func(by int64) expr.Expr {
		return expr.Bin(expr.OpMod, expr.Bin(expr.OpAdd, n, expr.Int(by)), expr.Int(size))
	}
	body := []aemilia.Process{
		aemilia.Pre("up", rates.ExpRate(1), aemilia.Invoke("Ring", step(1))),
		aemilia.Pre("down", rates.ExpRate(1), aemilia.Invoke("Ring", step(size-1))),
	}
	var mons []string
	for j := range size {
		mon := fmt.Sprintf("at%d", j)
		mons = append(mons, mon)
		body = append(body, aemilia.When(expr.Bin(expr.OpEq, n, expr.Int(int64(j))),
			aemilia.Pre(mon, rates.PassiveRate(), aemilia.Invoke("Ring", n))))
	}
	ring := aemilia.NewElemType("Ring_Type", nil, mons,
		aemilia.NewBehavior("Ring", []aemilia.Param{aemilia.IntParam("n")}, aemilia.Ch(body...)))
	var insts []*aemilia.Instance
	var ms []measure.Measure
	for k := range rings {
		name := fmt.Sprintf("R%d", k)
		insts = append(insts, aemilia.NewInstance(name, "Ring_Type", expr.Int(0)))
		if k >= monitored {
			continue
		}
		m := measure.Measure{Name: name + "_position"}
		for j, mon := range mons {
			m.Clauses = append(m.Clauses, measure.Clause{Instance: name, Action: mon, Kind: measure.StateReward, Value: float64(j)})
		}
		ms = append(ms, m)
	}
	m := mustElaborate(t, func() (*elab.Model, error) {
		return elab.Elaborate(aemilia.NewArchiType("Rings", []*aemilia.ElemType{ring}, insts, nil))
	})
	return simCase{"rings", m, nil, ms, sim.Config{RunLength: 2000, Warmup: 10, Replications: 3, Seed: 5}}
}

// TestSimFingerprints pins the simulator's exact results — every
// estimate's bits and the event count — on the paper's general models,
// at one and two workers, and requires eight workers to match one.
func TestSimFingerprints(t *testing.T) {
	got := map[string]simFingerprint{}
	for _, c := range simCases(t) {
		for _, workers := range []int{1, 2, 8} {
			cfg := c.cfg
			cfg.Model, cfg.Distributions, cfg.Measures, cfg.Workers = c.model, c.dists, c.ms, workers
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			fp := fingerprintOf(res)
			if workers == 8 {
				if one := got[c.name+"/workers=1"]; !reflect.DeepEqual(fp, one) {
					t.Errorf("%s: workers=8 got %+v, workers=1 %+v", c.name, fp, one)
				}
				continue
			}
			got[fmt.Sprintf("%s/workers=%d", c.name, workers)] = fp
		}
	}
	if *updateFingerprints {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	var want map[string]simFingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	for name := range want {
		if _, ok := got[name]; !ok {
			diffs = append(diffs, name+": missing")
		}
	}
	for name, fp := range got {
		if !reflect.DeepEqual(want[name], fp) {
			diffs = append(diffs, fmt.Sprintf("%s: got %+v, want %+v", name, fp, want[name]))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Fatalf("simulation fingerprints differ from %s:\n%s", fingerprintPath, strings.Join(diffs, "\n"))
	}
}

// TestReplicationIgnoresRunnerHistory requires a replication's values to
// be bit-identical whether its runner is fresh or first ran the case's
// other replications. A runner assigns its state, transition and
// reward-class ids in the order its replications meet them, so the
// second runner numbers them differently; the test also requires that to
// happen somewhere, or it would show nothing.
func TestReplicationIgnoresRunnerHistory(t *testing.T) {
	renumbered := false
	for _, c := range append(simCases(t), ringsCase(t, 4)) {
		cfg := c.cfg
		cfg.Model, cfg.Distributions, cfg.Measures = c.model, c.dists, c.ms
		cfg.MaxEvents = 50_000_000
		for i := range cfg.Replications {
			var others []int
			for j := cfg.Replications - 1; j >= 0; j-- {
				if j != i {
					others = append(others, j)
				}
			}
			fresh, freshKeys, err := sim.ReplicateAfter(cfg, nil, i)
			if err != nil {
				t.Fatal(err)
			}
			warm, warmKeys, err := sim.ReplicateAfter(cfg, others, i)
			if err != nil {
				t.Fatal(err)
			}
			for m, v := range fresh {
				if math.Float64bits(warm[m]) != math.Float64bits(v) {
					t.Errorf("%s replication %d: %s = %v after replications %v, %v on a fresh runner",
						c.name, i, c.ms[m].Name, warm[m], others, v)
				}
			}
			renumbered = renumbered || !slices.Equal(warmKeys[:len(freshKeys)], freshKeys)
		}
	}
	if !renumbered {
		t.Error("no case gave a reward class a different id on the second runner")
	}
}

// TestCompileAllocatesPerChunk gates the state records: a state's
// record lives in a page that never moves and its lists are carved from
// chunks the runner owns, so a first replication that compiles over a
// thousand states allocates a small fraction as many times, not a few
// slices per state. What it does allocate is mostly elab.Compiled's, once
// per local state of an instance (24 here).
func TestCompileAllocatesPerChunk(t *testing.T) {
	c := ringsCase(t, 1)
	cfg := c.cfg
	cfg.Model, cfg.Measures, cfg.RunLength, cfg.MaxEvents = c.model, c.ms, 5000, 50_000_000
	allocs, compiled, err := sim.FirstReplication(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if compiled < 1000 {
		t.Fatalf("the replication compiled %d states, want at least 1000", compiled)
	}
	t.Logf("%d allocations for %d compiled states", allocs, compiled)
	if allocs > uint64(compiled/3) {
		t.Errorf("%d allocations for %d compiled states, want at most one per three states", allocs, compiled)
	}
}

// TestModelOverridesResolve checks that every duration override the paper
// models ship names an activity of its model: the rpc overrides under all
// four DPM policies, and the streaming ones with and without DPM and with
// the periodic wake-up off.
func TestModelOverridesResolve(t *testing.T) {
	run := func(name string, m *elab.Model, dists map[sim.Activity]dist.Distribution, ms []measure.Measure) {
		t.Helper()
		if _, err := sim.Run(sim.Config{Model: m, Distributions: dists, Measures: ms, RunLength: 10, Replications: 2}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, pol := range []models.Policy{models.PolicyTimeout, models.PolicyTrivial, models.PolicyPredictive, models.PolicyNone} {
		p := models.DefaultRPCParams()
		p.Policy = pol
		p.WithDPM = pol != models.PolicyNone
		m, ms := rpcSimModel(t, p), models.RPCMeasures(p)
		run("rpc/"+pol.String()+"/general", m, models.RPCGeneralDistributions(p), ms)
	}
	for _, c := range []struct {
		name    string
		withDPM bool
		period  float64
	}{{"dpm", true, -1}, {"nodpm", false, -1}, {"dpm-noperiod", true, 0}} {
		p := models.DefaultStreamingParams()
		p.WithDPM = c.withDPM
		if c.period >= 0 {
			p.AwakePeriod = c.period
		}
		m, ms := streamingSimModel(t, p), models.StreamingMeasures(p)
		run("streaming/"+c.name+"/general", m, models.StreamingGeneralDistributions(p), ms)
	}
}
