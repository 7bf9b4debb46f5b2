package pipeline_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/stats"
)

// TestValidatePerMeasureSorted: PerMeasure must come back sorted by
// measure name on every call, independent of map iteration order — the
// regression guard for the report-order fix.
func TestValidatePerMeasureSorted(t *testing.T) {
	exact := &pipeline.Phase2Report{Values: map[string]float64{
		"zeta": 1, "alpha": 2, "mid": 3, "beta": 4, "omega": 5,
	}}
	simulated := &pipeline.Phase3Report{Estimates: map[string]stats.Interval{
		"zeta":  {Mean: 1, HalfWidth: 0.1},
		"alpha": {Mean: 2, HalfWidth: 0.1},
		"mid":   {Mean: 3, HalfWidth: 0.1},
		"beta":  {Mean: 4, HalfWidth: 0.1},
		"omega": {Mean: 5, HalfWidth: 0.1},
	}}

	var first []string
	for run := 0; run < 20; run++ {
		rep := pipeline.Validate(exact, simulated, 1e-3)
		if len(rep.PerMeasure) != len(exact.Values) {
			t.Fatalf("run %d: %d rows, want %d", run, len(rep.PerMeasure), len(exact.Values))
		}
		names := make([]string, len(rep.PerMeasure))
		for i, mv := range rep.PerMeasure {
			names[i] = mv.Name
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("run %d: PerMeasure not sorted by name: %v", run, names)
		}
		if first == nil {
			first = names
			continue
		}
		for i := range names {
			if names[i] != first[i] {
				t.Fatalf("run %d: row order changed: %v vs %v", run, names, first)
			}
		}
	}
	if !simulated.Estimates["zeta"].Contains(1) {
		t.Fatalf("sanity: interval should contain exact value")
	}
	rep := pipeline.Validate(exact, simulated, 1e-3)
	if !rep.Consistent {
		t.Fatalf("validation should be consistent when every exact value is inside its interval")
	}
}

// makeEstimates builds an estimate map from {name: {mean, halfwidth}}.
func makeEstimates(src map[string][2]float64) map[string]stats.Interval {
	out := make(map[string]stats.Interval, len(src))
	for name, mh := range src {
		out[name] = stats.Interval{Mean: mh[0], HalfWidth: mh[1], Level: 0.9, N: 30}
	}
	return out
}

func TestValidateFlagsInconsistency(t *testing.T) {
	exact := &pipeline.Phase2Report{Values: map[string]float64{"m": 1.0, "skipped": 2}}
	sim := &pipeline.Phase3Report{}
	sim.Estimates = makeEstimates(map[string][2]float64{"m": {2.0, 0.01}})
	rep := pipeline.Validate(exact, sim, 0.05)
	if rep.Consistent {
		t.Error("100% relative error must be inconsistent")
	}
	if len(rep.PerMeasure) != 1 {
		t.Errorf("measures without estimates should be skipped: %+v", rep.PerMeasure)
	}
	// Within tolerance passes even outside the CI.
	sim.Estimates = makeEstimates(map[string][2]float64{"m": {1.01, 0.001}})
	rep = pipeline.Validate(exact, sim, 0.05)
	if !rep.Consistent {
		t.Error("1% relative error within a 5% budget must be consistent")
	}
	// A NaN on either side makes the relative error NaN, which is within
	// no budget: the comparison must fail rather than pass by default.
	for _, c := range []struct{ exact, mean float64 }{
		{0.5, math.NaN()},
		{math.NaN(), 0.5},
	} {
		exact := &pipeline.Phase2Report{Values: map[string]float64{"energy": c.exact}}
		sim.Estimates = makeEstimates(map[string][2]float64{"energy": {c.mean, 0.01}})
		if rep := pipeline.Validate(exact, sim, 0.05); rep.Consistent {
			t.Errorf("exact %v vs estimate %v reported consistent: %+v", c.exact, c.mean, rep.PerMeasure)
		}
	}
}
