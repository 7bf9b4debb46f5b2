package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lts"
)

// checkMarkovGenerations pins the generate-once contract of the
// rate-parametric sweep engine with the lts.GenerateCalls hook: a
// Markovian comparison over positive knob values generates exactly two
// state spaces (the no-DPM baseline and the shared with-DPM structure),
// however many points it has; a structure-changing knob (<= 0) adds one
// generation for its own per-point build. No test in this package runs
// in parallel, so the process-wide counter deltas are exact.
func checkMarkovGenerations(t *testing.T, study *caseStudy, scale Scale, grid []float64, want int64) {
	t.Helper()
	before := lts.GenerateCalls()
	if _, err := newStudy().compareMarkov(study, scale, grid); err != nil {
		t.Fatal(err)
	}
	if got := lts.GenerateCalls() - before; got != want {
		t.Errorf("%s %v ran Generate %d times, want %d (baseline + one shared sweep structure + one per knob <= 0)",
			study.knob, grid, got, want)
	}
}

// TestFig3MarkovGeneratesOncePerStructure checks the rpc comparison:
// three positive timeouts share one sweep structure, and a timeout of 0
// adds its own build.
func TestFig3MarkovGeneratesOncePerStructure(t *testing.T) {
	checkMarkovGenerations(t, rpcCase, Full, []float64{0.5, 5, 25}, 2)
	checkMarkovGenerations(t, rpcCase, Full, []float64{0, 5, 25}, 3)
}

// TestFig4MarkovGeneratesOncePerStructure is the streaming counterpart:
// one generation for the no-DPM baseline, one for all positive periods.
func TestFig4MarkovGeneratesOncePerStructure(t *testing.T) {
	checkMarkovGenerations(t, streamingCase, Quick, []float64{50, 100, 400}, 2)
}

// TestTradeoffCurvesFromPoints covers the trade-off grid construction in
// isolation: already-computed comparisons map into curves with the right
// knob/penalty/energy coordinates and no further solves.
func TestTradeoffCurvesFromPoints(t *testing.T) {
	for _, c := range []struct {
		x, y    string
		points  []Comparison
		general int // the points the general curve is built from
	}{
		{"wait", "energy_per_req", []Comparison{
			{Knob: 1, WithDPM: map[string]float64{"thr": 0.09, "wait": 3, "energy_per_req": 20}},
			{Knob: 10, WithDPM: map[string]float64{"thr": 0.08, "wait": 5, "energy_per_req": 12}},
		}, 1},
		{"miss", "energy_per_frame", []Comparison{
			{Knob: 100, WithDPM: map[string]float64{"energy_per_frame": 2, "miss": 0.01}},
			{Knob: 400, WithDPM: map[string]float64{"energy_per_frame": 1, "miss": 0.2}},
		}, 0},
	} {
		curves := tradeoff(c.points, c.points[:c.general], c.x, c.y)
		if len(curves.Markov) != len(c.points) || len(curves.General) != c.general || (c.general == 0) != (curves.General == nil) {
			t.Fatalf("%s curve sizes: markov %d, general %v", c.x, len(curves.Markov), curves.General)
		}
		for i, pt := range c.points {
			got := curves.Markov[i]
			if got.Knob != pt.Knob || got.X != pt.WithDPM[c.x] || got.Y != pt.WithDPM[c.y] {
				t.Errorf("%s point %d mapped to %+v", c.x, i, got)
			}
		}
		if d := ParetoDominated(curves.Markov); len(d) != 0 {
			t.Errorf("%s: neither synthetic point dominates the other, got %v", c.x, d)
		}
	}
}

// TestGoldenWithinPrechangeTolerance pins the accuracy side of the sweep
// engine's introduction: the regenerated golden outputs of the pure
// Markovian sweeps (rate points of one built chain, warm-started solves)
// agree within solver tolerance with the per-point cold-solve outputs
// recorded before the change (golden_quick_prechange.json, which holds
// those keys alone). Every prechange key must be in the golden.
func TestGoldenWithinPrechangeTolerance(t *testing.T) {
	read := func(name string) map[string]json.RawMessage {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	pre := read("golden_quick_prechange.json")
	cur := read("golden_quick.json")
	for name := range pre {
		raw, ok := cur[name]
		if !ok {
			t.Fatalf("experiment %s missing from current golden", name)
		}
		approxEqualJSON(t, name, pre[name], raw, 1e-6)
	}
}
