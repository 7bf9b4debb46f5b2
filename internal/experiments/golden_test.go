package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/pipeline"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// studies lists the catalog: every entry of both study CLIs.
var studies = []*Study{RPCStudy, StreamingStudy}

// goldenCut is the quick cut one catalog entry runs at in the goldens, and
// the key its result is recorded under.
type goldenCut struct {
	key string // "" records nothing: see the entry's comment
	cut cut
}

var (
	goldenRPCSim = pipeline.SimSettings{RunLength: 500, Replications: 3}
	goldenStrSim = pipeline.SimSettings{RunLength: 2000, Warmup: 500, Replications: 2}
)

// goldenCuts holds the quick cut of every catalog entry, keyed by
// "study/name".
var goldenCuts = map[string]goldenCut{
	// The Sect. 3 verdicts and state counts are pinned by TestSect3Results.
	"rpc/sect3":       {},
	"rpc/fig3markov":  {"fig3_markov", cut{grid: []float64{0.5, 5, 25}}},
	"rpc/fig3general": {"fig3_general", cut{grid: []float64{2, 10}, sim: goldenRPCSim}},
	"rpc/fig5":        {"fig5_validation", cut{grid: []float64{5}, sim: goldenRPCSim}},
	"rpc/policies":    {"policy_comparison", cut{}},
	"rpc/battery":     {"battery_lifetime", cut{budget: 1000}},
	"rpc/fig7":        {"fig7_tradeoff", cut{grid: []float64{1, 10}, sim: goldenRPCSim}},

	"streaming/sect3":     {},
	"streaming/fig4":      {"fig4_markov", cut{scale: Quick, grid: []float64{50, 400}}},
	"streaming/fig6":      {"fig6_general", cut{scale: Quick, grid: []float64{100}, sim: goldenStrSim}},
	"streaming/transient": {"startup_transient", cut{scale: Quick, grid: []float64{100, 500}}},
	"streaming/fig8":      {"fig8_tradeoff", cut{scale: Quick, grid: []float64{100, 400}, sim: goldenStrSim}},
}

// collectCatalog runs every catalog entry that keep accepts at its golden
// cut through r, and returns the results keyed by their golden keys. Each entry runs alone, with a fresh memo: a consumer runs
// its inputs at its own cut. Floats are serialized by encoding/json, which
// emits the shortest representation that round-trips, so equal JSON bytes
// mean bit-identical float64 results.
func collectCatalog(t *testing.T, r *Runner, keep func(*entry) bool) map[string]json.RawMessage {
	t.Helper()
	out := make(map[string]json.RawMessage)
	for _, s := range studies {
		for _, e := range s.entries {
			g := goldenCuts[s.name+"/"+e.name]
			if g.key == "" || !keep(e) {
				continue
			}
			v, _, err := newMemo(r, s, g.cut).run(e, FormatTable)
			if err != nil {
				t.Fatalf("%s (unfolded=%t workers=%d): %v", g.key, r.unfolded, r.cfg.Workers, err)
			}
			raw, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: marshal: %v", g.key, err)
			}
			out[g.key] = raw
		}
	}
	return out
}

// collectGolden runs a quick cut of every catalog entry at the given
// worker count.
func collectGolden(t *testing.T, workers int) map[string]json.RawMessage {
	return collectCatalog(t, NewRunner(pipeline.Config{Workers: workers}), func(*entry) bool { return true })
}

// TestGoldenCutsMatchCatalog fails when a catalog entry has no golden cut
// or a cut names no entry, so a new entry is covered by the goldens as
// soon as it is added.
func TestGoldenCutsMatchCatalog(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range studies {
		for _, e := range s.entries {
			id := s.name + "/" + e.name
			seen[id] = true
			if _, ok := goldenCuts[id]; !ok {
				t.Errorf("catalog entry %s has no golden cut", id)
			}
		}
	}
	for id := range goldenCuts {
		if !seen[id] {
			t.Errorf("golden cut %s names no catalog entry", id)
		}
	}
}

// TestGoldenExperimentOutputs pins the numerical output of the whole
// experiment suite: any change to state-space generation, CTMC extraction,
// solving, or simulation that perturbs a single bit of any figure point
// fails this test. The same results must be produced at workers=1 and
// workers=8 (the engine's determinism contract).
func TestGoldenExperimentOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite is not short")
	}
	goldenPath := filepath.Join("testdata", "golden_quick.json")

	seq := collectGolden(t, 1)
	par := collectGolden(t, 8)
	for name, want := range seq {
		if got, ok := par[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: workers=8 output differs from workers=1", name)
		}
	}

	got, err := json.MarshalIndent(seq, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		var gotM, wantM map[string]json.RawMessage
		if json.Unmarshal(got, &gotM) == nil && json.Unmarshal(want, &wantM) == nil {
			for name := range wantM {
				if !bytes.Equal(gotM[name], wantM[name]) {
					t.Errorf("%s: output differs from golden", name)
				}
			}
		}
		t.Fatalf("experiment outputs differ from %s (run with -update to regenerate)", goldenPath)
	}
}

// approxEqualJSON compares two JSON documents structurally, requiring
// numbers to agree within relative tolerance and everything else to be
// equal.
func approxEqualJSON(t *testing.T, name string, a, b json.RawMessage, tol float64) {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatal(err)
	}
	var walk func(path string, x, y any)
	walk = func(path string, x, y any) {
		switch xv := x.(type) {
		case float64:
			yv, ok := y.(float64)
			if !ok {
				t.Fatalf("%s%s: number vs %T", name, path, y)
			}
			diff := math.Abs(xv - yv)
			if rel := diff / math.Max(math.Abs(xv), 1e-12); rel > tol && diff > 1e-12 {
				t.Errorf("%s%s: %g vs %g (rel %g > %g)", name, path, xv, yv, rel, tol)
			}
		case map[string]any:
			yv, ok := y.(map[string]any)
			if !ok || len(xv) != len(yv) {
				t.Fatalf("%s%s: object shape differs", name, path)
			}
			for k := range xv {
				walk(path+"."+k, xv[k], yv[k])
			}
		case []any:
			yv, ok := y.([]any)
			if !ok || len(xv) != len(yv) {
				t.Fatalf("%s%s: array shape differs", name, path)
			}
			for i := range xv {
				walk(path+"["+strconv.Itoa(i)+"]", xv[i], yv[i])
			}
		default:
			if x != y {
				t.Errorf("%s%s: %v vs %v", name, path, x, y)
			}
		}
	}
	walk("", va, vb)
}
