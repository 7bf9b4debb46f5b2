package sim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/elab"
	"repro/internal/measure"
	"repro/internal/models"
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

// TestSimFingerprints pins the simulator's exact results — every
// estimate's bits and the event count — on the paper's general models,
// at one and two workers.
func TestSimFingerprints(t *testing.T) {
	got := map[string]simFingerprint{}
	for _, c := range simCases(t) {
		for _, workers := range []int{1, 2} {
			cfg := c.cfg
			cfg.Model, cfg.Distributions, cfg.Measures, cfg.Workers = c.model, c.dists, c.ms, workers
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			got[fmt.Sprintf("%s/workers=%d", c.name, workers)] = fingerprintOf(res)
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
