package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lts"
)

// TestFig3MarkovGeneratesOncePerStructure pins the generate-once contract
// of the rate-parametric sweep engine with the lts.GenerateCalls hook: a
// Fig. 3 sweep over positive timeouts generates exactly two state spaces
// (the no-DPM baseline and the shared with-DPM structure), however many
// points it has; a structure-changing timeout (<= 0) adds one generation
// for its own per-point build. No test in this package runs in parallel,
// so the process-wide counter deltas are exact.
func TestFig3MarkovGeneratesOncePerStructure(t *testing.T) {
	before := lts.GenerateCalls()
	if _, err := newStudy().Fig3Markov([]float64{0.5, 5, 25}); err != nil {
		t.Fatal(err)
	}
	if got := lts.GenerateCalls() - before; got != 2 {
		t.Fatalf("Fig3Markov over 3 positive timeouts ran Generate %d times, want 2 (baseline + one shared sweep structure)", got)
	}

	before = lts.GenerateCalls()
	if _, err := newStudy().Fig3Markov([]float64{0, 5, 25}); err != nil {
		t.Fatal(err)
	}
	if got := lts.GenerateCalls() - before; got != 3 {
		t.Fatalf("Fig3Markov with a structure-changing timeout ran Generate %d times, want 3 (baseline + sweep + timeout-0 fallback)", got)
	}
}

// TestFig4MarkovGeneratesOncePerStructure is the streaming counterpart:
// one generation for the no-DPM baseline, one for all positive periods.
func TestFig4MarkovGeneratesOncePerStructure(t *testing.T) {
	before := lts.GenerateCalls()
	if _, err := newStudy().Fig4Markov([]float64{50, 100, 400}, Quick); err != nil {
		t.Fatal(err)
	}
	if got := lts.GenerateCalls() - before; got != 2 {
		t.Fatalf("Fig4Markov over 3 positive periods ran Generate %d times, want 2 (baseline + one shared sweep structure)", got)
	}
}

// TestTradeoffCurvesFromPoints covers the trade-off grid construction in
// isolation: already-computed Fig. 3/4 point slices map into curves with
// the right knob/penalty/energy coordinates and no further solves.
func TestTradeoffCurvesFromPoints(t *testing.T) {
	rpc := []RPCPoint{
		{Timeout: 1, WithDPM: RPCMetrics{Throughput: 0.09, WaitingTime: 3, EnergyPerRequest: 20}},
		{Timeout: 10, WithDPM: RPCMetrics{Throughput: 0.08, WaitingTime: 5, EnergyPerRequest: 12}},
	}
	curves := RPCTradeoffCurves(rpc, rpc[:1])
	if len(curves.Markov) != 2 || len(curves.General) != 1 {
		t.Fatalf("curve sizes: markov %d, general %d", len(curves.Markov), len(curves.General))
	}
	for i, pt := range rpc {
		got := curves.Markov[i]
		if got.Knob != pt.Timeout || got.X != pt.WithDPM.WaitingTime || got.Y != pt.WithDPM.EnergyPerRequest {
			t.Errorf("rpc point %d mapped to %+v", i, got)
		}
	}

	str := []StreamingPoint{
		{Period: 100, WithDPM: StreamingMetrics{EnergyPerFrame: 2, Miss: 0.01}},
		{Period: 400, WithDPM: StreamingMetrics{EnergyPerFrame: 1, Miss: 0.2}},
	}
	sc := StreamingTradeoffCurves(str, nil)
	if len(sc.Markov) != 2 || sc.General != nil {
		t.Fatalf("curve sizes: markov %d, general %v", len(sc.Markov), sc.General)
	}
	for i, pt := range str {
		got := sc.Markov[i]
		if got.Knob != pt.Period || got.X != pt.WithDPM.Miss || got.Y != pt.WithDPM.EnergyPerFrame {
			t.Errorf("streaming point %d mapped to %+v", i, got)
		}
	}
	if d := ParetoDominated(sc.Markov); len(d) != 0 {
		t.Errorf("neither synthetic streaming point dominates the other, got %v", d)
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
