package lts_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/aemilia/parser"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/rates"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/lts_fingerprints.json")

const fingerprintPath = "testdata/lts_fingerprints.json"

// fingerprintCase is one generation whose exact output is pinned.
type fingerprintCase struct {
	name  string
	model func(t *testing.T) *elab.Model
	opts  func(t *testing.T) lts.GenerateOptions
}

// ltsDigest is the SHA-256 of everything a generated LTS exposes: state
// count, initial state, every CSR edge (source, destination, label id and
// name, all rate fields as bits, aux handle), the predicate names and
// columns, the attribution pool, and a sample of state descriptions.
func ltsDigest(l *lts.LTS) string {
	h := sha256.New()
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(s string) { u64(uint64(len(s))); b = append(b, s...) }
	rate := func(r rates.Rate) {
		u64(uint64(r.Kind))
		u64(math.Float64bits(r.Lambda))
		u64(uint64(r.Priority))
		u64(math.Float64bits(r.Weight))
		u64(uint64(r.Slot))
	}
	flush := func() { h.Write(b); b = b[:0] }

	u64(uint64(l.NumStates))
	u64(uint64(l.Initial))
	for s := 0; s < l.NumStates; s++ {
		sp := l.Out(s)
		base := l.EdgeBase(s)
		for k := 0; k < sp.Len(); k++ {
			u64(uint64(s))
			u64(uint64(sp.Dst[k]))
			u64(uint64(sp.Label[k]))
			str(l.LabelName(int(sp.Label[k])))
			rate(sp.Rate(k))
			u64(uint64(l.EdgeAux(base + k)))
		}
		flush()
	}
	u64(uint64(len(l.PredNames)))
	for p, name := range l.PredNames {
		str(name)
		for _, v := range l.Preds[p] {
			if v {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		flush()
	}
	u64(uint64(l.NumAux()))
	for a := 1; a <= l.NumAux(); a++ {
		labs, counts := l.AuxTerms(a)
		u64(uint64(len(labs)))
		for i := range labs {
			str(l.LabelName(int(labs[i])))
			u64(math.Float64bits(counts[i]))
		}
	}
	// Descriptions: the first and last states and a stride between them.
	stride := max(1, l.NumStates/16)
	for s := 0; s < l.NumStates; s += stride {
		str(l.StateDesc(s))
	}
	str(l.StateDesc(l.NumStates - 1))
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

func specModel(file string) func(t *testing.T) *elab.Model {
	return func(t *testing.T) *elab.Model {
		t.Helper()
		src, err := os.ReadFile(filepath.Join("..", "..", "specs", file))
		if err != nil {
			t.Fatal(err)
		}
		a, err := parser.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return mustModel(t, a)
	}
}

func rpcModel(p models.RPCParams) func(t *testing.T) *elab.Model {
	return func(t *testing.T) *elab.Model {
		t.Helper()
		a, err := models.BuildRPCRevised(p)
		if err != nil {
			t.Fatal(err)
		}
		return mustModel(t, a)
	}
}

func streamingModel(p models.StreamingParams) func(t *testing.T) *elab.Model {
	return func(t *testing.T) *elab.Model {
		t.Helper()
		a, err := models.BuildStreaming(p)
		if err != nil {
			t.Fatal(err)
		}
		return mustModel(t, a)
	}
}

func plainOpts(*testing.T) lts.GenerateOptions { return lts.GenerateOptions{} }

func measureOpts(ms []measure.Measure) func(*testing.T) lts.GenerateOptions {
	return func(*testing.T) lts.GenerateOptions {
		return lts.GenerateOptions{Predicates: measure.StatePreds(ms)}
	}
}

// foldedOpts are a minimizing session's generation options: the measures'
// predicates plus vanishing-state folding observing their TRANS_REWARD
// labels.
func foldedOpts(ms []measure.Measure) func(*testing.T) lts.GenerateOptions {
	return func(*testing.T) lts.GenerateOptions {
		return lts.GenerateOptions{
			Predicates: measure.StatePreds(ms),
			Fold:       &lts.FoldOptions{Observed: measure.ObservedMatcher(ms)},
		}
	}
}

func fingerprintCases(t *testing.T) []fingerprintCase {
	var cases []fingerprintCase
	specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.aem"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	for _, path := range specs {
		file := filepath.Base(path)
		cases = append(cases, fingerprintCase{"spec/" + file, specModel(file), plainOpts})
	}

	rpcMarkov := models.DefaultRPCParams()
	rpcFunctional := rpcMarkov
	rpcFunctional.Mode = models.Functional
	stMarkov := models.DefaultStreamingParams()
	stFunctional := stMarkov
	stFunctional.Mode = models.Functional
	rpcMs, stMs := models.RPCMeasures(rpcMarkov), models.StreamingMeasures(stMarkov)
	cases = append(cases,
		fingerprintCase{"rpc-simplified", func(t *testing.T) *elab.Model {
			a, err := models.BuildRPCSimplified()
			if err != nil {
				t.Fatal(err)
			}
			return mustModel(t, a)
		}, plainOpts},
		fingerprintCase{"rpc/markov", rpcModel(rpcMarkov), measureOpts(rpcMs)},
		fingerprintCase{"rpc/functional", rpcModel(rpcFunctional), measureOpts(rpcMs)},
		fingerprintCase{"streaming/markov", streamingModel(stMarkov), measureOpts(stMs)},
		fingerprintCase{"streaming/functional", streamingModel(stFunctional), measureOpts(stMs)},
		fingerprintCase{"streaming/markov-folded", streamingModel(stMarkov), foldedOpts(stMs)},
	)

	// The minimized-and-folded specs of the Fig. 4 sweep (with and without
	// DPM) and of the 12×12 solve-stress chain.
	fig4 := stMarkov
	fig4.ParametricPeriod = true
	fig4NoDPM := fig4
	fig4NoDPM.WithDPM = false
	stress := fig4
	stress.APCapacity, stress.ClientCapacity = 12, 12
	for _, c := range []struct {
		name string
		p    models.StreamingParams
	}{{"fig4", fig4}, {"fig4-nodpm", fig4NoDPM}, {"streaming-12x12", stress}} {
		ms := models.StreamingMeasures(c.p)
		cases = append(cases, fingerprintCase{
			"minimized/" + c.name, streamingModel(c.p), foldedOpts(ms),
		})
	}
	rpcSwept := rpcMarkov
	rpcSwept.ParametricTimeout = true
	cases = append(cases, fingerprintCase{
		"minimized/rpc", rpcModel(rpcSwept), foldedOpts(rpcMs),
	})
	// The other DPM policies of the policy comparison, timeout slotted.
	for _, pol := range []models.Policy{models.PolicyTrivial, models.PolicyPredictive} {
		p := rpcSwept
		p.Policy = pol
		cases = append(cases, fingerprintCase{
			"minimized/rpc-" + pol.String(), rpcModel(p), foldedOpts(rpcMs),
		})
	}
	return cases
}

// TestLTSFingerprints pins the generator's exact output — state numbering,
// CSR order, label ids, rates, predicate columns, attribution pool and
// state descriptions — on every spec and paper model, full and minimized.
func TestLTSFingerprints(t *testing.T) {
	got := map[string]string{}
	for _, c := range fingerprintCases(t) {
		l, err := lts.Generate(c.model(t), c.opts(t))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = ltsDigest(l)
	}
	if *updateFingerprints {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := goldenFingerprints(t)
	var diffs []string
	for name := range want {
		if _, ok := got[name]; !ok {
			diffs = append(diffs, name+": missing")
		}
	}
	for name, d := range got {
		if want[name] != d {
			diffs = append(diffs, name+": digest "+d+", want "+want[name])
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Fatalf("LTS fingerprints differ from %s:\n%s", fingerprintPath, strings.Join(diffs, "\n"))
	}
}

// goldenFingerprints reads the pinned digests.
func goldenFingerprints(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFoldMemoResetInvariance pins that resetting the fold memo changes
// nothing but speed: with the memo limit lowered to 64 tuples it resets
// every few source states, and the minimized 12×12 streaming system still
// matches its pinned fingerprint.
func TestFoldMemoResetInvariance(t *testing.T) {
	const name = "minimized/streaming-12x12"
	want := goldenFingerprints(t)[name]
	for _, c := range fingerprintCases(t) {
		if c.name != name {
			continue
		}
		opts := c.opts(t)
		opts.Fold = lts.WithFoldMemoLimitForTest(*opts.Fold, 64)
		l, err := lts.Generate(c.model(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := ltsDigest(l); got != want {
			t.Fatalf("%s with a 64-tuple fold memo: digest %s, want %s", name, got, want)
		}
		return
	}
	t.Fatalf("no fingerprint case %s", name)
}
