package experiments

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/pipeline"
)

// The experiment tests run at Quick scale with short simulations: they
// assert the paper's qualitative shapes, not absolute values.

// newStudy returns a fresh Runner using every CPU, so each call stages
// its models from scratch, with nothing shared between tests.
func newStudy() *Runner { return NewRunner(pipeline.Config{Workers: runtime.NumCPU()}) }

func TestSect3Results(t *testing.T) {
	simplified, err := newStudy().RPCNoninterferenceSimplified()
	if err != nil {
		t.Fatal(err)
	}
	if simplified.Transparent {
		t.Error("simplified rpc must fail noninterference")
	}
	if !strings.Contains(simplified.Formula, "C.send_rpc_packet#RCS.get_packet") {
		t.Errorf("formula missing client send label: %s", simplified.Formula)
	}

	revised, err := newStudy().RPCNoninterferenceRevised()
	if err != nil {
		t.Fatal(err)
	}
	if !revised.Transparent {
		t.Errorf("revised rpc must pass; formula: %s", revised.Formula)
	}

	streaming, err := newStudy().StreamingNoninterference(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !streaming.Transparent {
		t.Errorf("streaming must pass; formula: %s", streaming.Formula)
	}
}

// TestSect3StreamingFullScale runs the Sect. 3.2 check at the paper's
// buffer capacity of 10: 38,016 states hidden, 6,912 restricted.
func TestSect3StreamingFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale state space; skipped under -short")
	}
	res, err := newStudy().StreamingNoninterference(Full)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Transparent {
		t.Errorf("streaming must pass at capacity 10; formula: %s", res.Formula)
	}
	if res.States != 38016 || res.Transitions != 154464 {
		t.Errorf("state space %d states, %d transitions; want 38016, 154464", res.States, res.Transitions)
	}
}

func TestFig3MarkovShapes(t *testing.T) {
	pts, err := newStudy().compareMarkov(rpcCase, Full, []float64{0.5, 5, 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if !(pt.WithDPM["thr"] < pt.NoDPM["thr"]) {
			t.Errorf("timeout %v: DPM throughput %v !< no-DPM %v",
				pt.Knob, pt.WithDPM["thr"], pt.NoDPM["thr"])
		}
		if !(pt.WithDPM["wait"] > pt.NoDPM["wait"]) {
			t.Errorf("timeout %v: DPM waiting %v !> no-DPM %v",
				pt.Knob, pt.WithDPM["wait"], pt.NoDPM["wait"])
		}
		if !(pt.WithDPM["energy_per_req"] < pt.NoDPM["energy_per_req"]) {
			t.Errorf("timeout %v: DPM energy/req %v !< no-DPM %v (Markovian DPM is never counterproductive)",
				pt.Knob, pt.WithDPM["energy_per_req"], pt.NoDPM["energy_per_req"])
		}
	}
	// Shorter timeout → larger impact.
	if !(pts[0].WithDPM["energy_per_req"] < pts[2].WithDPM["energy_per_req"]) {
		t.Error("energy/request should grow with the timeout")
	}
	if !(pts[0].WithDPM["thr"] < pts[2].WithDPM["thr"]) {
		t.Error("throughput should grow with the timeout")
	}
}

func TestFig3GeneralBimodal(t *testing.T) {
	settings := pipeline.SimSettings{RunLength: 4000, Replications: 6}
	pts, err := newStudy().compareGeneral(rpcCase, Full, []float64{2, 10, 20}, settings)
	if err != nil {
		t.Fatal(err)
	}
	small, knee, large := pts[0], pts[1], pts[2]
	// Region 1 (timeout below the ~11.3 ms mean idle period): flat
	// penalty, energy grows with the timeout.
	if !(small.WithDPM["energy_per_req"] < knee.WithDPM["energy_per_req"]) {
		t.Errorf("energy should grow with timeout below the knee: %v !< %v",
			small.WithDPM["energy_per_req"], knee.WithDPM["energy_per_req"])
	}
	// Near the knee the DPM is counterproductive (paper's key finding).
	if !(knee.WithDPM["energy_per_req"] > knee.NoDPM["energy_per_req"]) {
		t.Errorf("DPM should be counterproductive near the knee: %v !> %v",
			knee.WithDPM["energy_per_req"], knee.NoDPM["energy_per_req"])
	}
	// Region 2 (timeout above the idle period): DPM has no effect.
	relDiff := func(a, b float64) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d / b
	}
	if relDiff(large.WithDPM["thr"], large.NoDPM["thr"]) > 0.02 {
		t.Errorf("above the knee the DPM should be inert: thr %v vs %v",
			large.WithDPM["thr"], large.NoDPM["thr"])
	}
	if !(small.WithDPM["thr"] < large.WithDPM["thr"]) {
		t.Error("throughput penalty should vanish above the knee")
	}
}

func TestFig4MarkovShapes(t *testing.T) {
	pts, err := newStudy().compareMarkov(streamingCase, Quick, []float64{25, 100, 400})
	if err != nil {
		t.Fatal(err)
	}
	// Energy per frame decreases with the awake period and is always
	// below the no-DPM level.
	for _, pt := range pts {
		if !(pt.WithDPM["energy_per_frame"] < pt.NoDPM["energy_per_frame"]) {
			t.Errorf("period %v: energy %v !< no-DPM %v",
				pt.Knob, pt.WithDPM["energy_per_frame"], pt.NoDPM["energy_per_frame"])
		}
	}
	if !(pts[2].WithDPM["energy_per_frame"] < pts[0].WithDPM["energy_per_frame"]) {
		t.Error("energy per frame should decrease with the awake period")
	}
	// Miss grows, quality falls.
	if !(pts[2].WithDPM["miss"] > pts[0].WithDPM["miss"]) {
		t.Error("miss should increase with the awake period")
	}
	if !(pts[2].WithDPM["quality"] < pts[0].WithDPM["quality"]) {
		t.Error("quality should decrease with the awake period")
	}
	// Loss grows for large periods.
	if !(pts[2].WithDPM["loss"] > pts[0].WithDPM["loss"]) {
		t.Error("loss should increase for large awake periods")
	}
}

func TestFig5ValidationConsistency(t *testing.T) {
	pts, err := newStudy().Fig5Validation([]float64{5, 20},
		pipeline.SimSettings{RunLength: 8000, Replications: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		// Either inside the 90% CI or within a small relative error —
		// the paper's "good agreement".
		if !pt.WithinCI && pt.RelErrDPM > 0.05 {
			t.Errorf("timeout %v: exact %v vs sim %v (rel err %v)",
				pt.Timeout, pt.ExactDPM, pt.SimDPM, pt.RelErrDPM)
		}
	}
}

func TestFig6GeneralShapes(t *testing.T) {
	settings := pipeline.SimSettings{RunLength: 60000, Warmup: 30000, Replications: 4}
	pts, err := newStudy().compareGeneral(streamingCase, Full, []float64{50, 800}, settings)
	if err != nil {
		t.Fatal(err)
	}
	smallP, largeP := pts[0], pts[1]
	// Plateau: small awake periods have no loss and (near-)perfect
	// quality while already saving sizeable energy.
	if smallP.WithDPM["loss"] != 0 {
		t.Errorf("no loss expected at 50 ms, got %v", smallP.WithDPM["loss"])
	}
	if smallP.WithDPM["quality"] < 0.95 {
		t.Errorf("quality at 50 ms should stay high, got %v", smallP.WithDPM["quality"])
	}
	if !(smallP.WithDPM["energy_per_frame"] < 0.6*smallP.NoDPM["energy_per_frame"]) {
		t.Errorf("at 50 ms expect >40%% saving: %v vs %v",
			smallP.WithDPM["energy_per_frame"], smallP.NoDPM["energy_per_frame"])
	}
	// Beyond the client-buffer cushion, quality collapses and loss
	// appears.
	if !(largeP.WithDPM["miss"] > smallP.WithDPM["miss"]+0.05) {
		t.Errorf("miss should rise at 800 ms: %v vs %v",
			largeP.WithDPM["miss"], smallP.WithDPM["miss"])
	}
	if !(largeP.WithDPM["loss"] > 0) {
		t.Error("loss should appear at 800 ms")
	}
}

func TestFig7TradeoffMonotone(t *testing.T) {
	r, timeouts := newStudy(), []float64{1, 8, 20}
	markov, err := r.compareMarkov(rpcCase, Full, timeouts)
	if err != nil {
		t.Fatal(err)
	}
	general, err := r.compareGeneral(rpcCase, Full, timeouts, pipeline.SimSettings{RunLength: 3000, Replications: 4})
	if err != nil {
		t.Fatal(err)
	}
	curves := tradeoff(markov, general, "wait", "energy_per_req")
	if len(curves.Markov) != 3 || len(curves.General) != 3 {
		t.Fatalf("curve sizes: %d, %d", len(curves.Markov), len(curves.General))
	}
	// On the Markov curve, smaller timeouts trade energy for waiting:
	// first point has lowest energy and highest waiting time.
	m := curves.Markov
	if !(m[0].Y < m[2].Y && m[0].X > m[2].X) {
		t.Errorf("Markov tradeoff not monotone: %+v", m)
	}
	// The general curve near the knee contains Pareto-dominated points
	// (paper's observation on Fig. 7).
	if len(ParetoDominated(curves.General)) == 0 {
		t.Errorf("expected dominated points on the general curve: %+v", curves.General)
	}
}

func TestFig8TradeoffShapes(t *testing.T) {
	r, periods := newStudy(), []float64{50, 400}
	markov, err := r.compareMarkov(streamingCase, Quick, periods)
	if err != nil {
		t.Fatal(err)
	}
	general, err := r.compareGeneral(streamingCase, Quick, periods,
		pipeline.SimSettings{RunLength: 30000, Warmup: 5000, Replications: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := tradeoff(markov, general, "miss", "energy_per_frame").Markov
	// Longer awake period: lower energy, higher miss.
	if !(m[1].Y < m[0].Y && m[1].X > m[0].X) {
		t.Errorf("Markov streaming tradeoff not monotone: %+v", m)
	}
}

func TestParetoDominated(t *testing.T) {
	pts := []TradeoffPoint{
		{X: 1, Y: 5},
		{X: 2, Y: 6}, // dominated by the first
		{X: 3, Y: 1},
	}
	dom := ParetoDominated(pts)
	if len(dom) != 1 || dom[0] != 1 {
		t.Errorf("ParetoDominated = %v, want [1]", dom)
	}
	if ParetoDominated(pts[:1]) != nil {
		t.Error("single point cannot be dominated")
	}
}

func TestFormatters(t *testing.T) {
	header := []string{"a", "bb"}
	rows := [][]string{{"1", "2"}, {"333", "4"}}
	table := FormatTable(header, rows)
	if !strings.Contains(table, "a    bb") || !strings.Contains(table, "333") {
		t.Errorf("table:\n%s", table)
	}
	csv := FormatCSV(header, rows)
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("csv:\n%s", csv)
	}
}

func TestRowRenderers(t *testing.T) {
	for c, cols := range map[*caseStudy]int{rpcCase: 7, streamingCase: 9} {
		h, rows := c.rows([]Comparison{{Knob: 5}})
		if len(h) != cols || h[0] != c.knob || len(rows) != 1 || rows[0][0] != "5" {
			t.Errorf("%s rows: %v %v", c.knob, h, rows)
		}
	}
	vp := []ValidationPoint{{Timeout: 5, WithinCI: true}}
	h, rows := Fig5Rows(vp)
	if len(h) != 8 || rows[0][6] != "yes" {
		t.Errorf("Fig5Rows: %v %v", h, rows)
	}
	tc := &TradeoffCurves{
		Markov:  []TradeoffPoint{{Knob: 1, X: 2, Y: 3}},
		General: []TradeoffPoint{{Knob: 1, X: 2, Y: 4}},
	}
	h, rows = TradeoffRows(tc, "x", "y")
	if len(h) != 4 || len(rows) != 2 || rows[1][1] != "general" {
		t.Errorf("TradeoffRows: %v %v", h, rows)
	}
}

func TestPolicyComparisonOrderings(t *testing.T) {
	pts, err := newStudy().PolicyComparison(5)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]map[string]float64, len(pts))
	for _, pt := range pts {
		byName[pt.Policy.String()] = pt.Metrics
	}
	none, trivial := byName["none"], byName["trivial"]
	timeout, predictive := byName["timeout"], byName["predictive"]
	// Every DPM policy saves energy over the baseline.
	for name, m := range byName {
		if name == "none" {
			continue
		}
		if !(m["energy_per_req"] < none["energy_per_req"]) {
			t.Errorf("%s should save energy: %v !< %v", name, m["energy_per_req"], none["energy_per_req"])
		}
		if !(m["thr"] < none["thr"]) {
			t.Errorf("%s should cost throughput: %v !< %v", name, m["thr"], none["thr"])
		}
	}
	// Trivial is the most aggressive (most saving, worst latency);
	// predictive the most conservative among the active policies.
	if !(trivial["energy_per_req"] < timeout["energy_per_req"] &&
		timeout["energy_per_req"] < predictive["energy_per_req"]) {
		t.Errorf("energy ordering trivial < timeout < predictive violated: %v %v %v",
			trivial["energy_per_req"], timeout["energy_per_req"], predictive["energy_per_req"])
	}
	if !(predictive["wait"] < timeout["wait"] &&
		timeout["wait"] < trivial["wait"]) {
		t.Errorf("waiting ordering predictive < timeout < trivial violated: %v %v %v",
			predictive["wait"], timeout["wait"], trivial["wait"])
	}
	h, rows := PolicyRows(pts)
	if len(h) != 4 || len(rows) != 4 {
		t.Errorf("PolicyRows shape: %v %v", h, rows)
	}
}

func TestBatteryLifetime(t *testing.T) {
	pts, err := newStudy().BatteryLifetime(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	byName := make(map[string]BatteryPoint, len(pts))
	for _, pt := range pts {
		byName[pt.Policy.String()] = pt
	}
	// Every DPM policy extends the battery lifetime over the baseline.
	none := byName["none"]
	for name, pt := range byName {
		if pt.Lifetime <= 0 || pt.RequestsServed <= 0 || pt.MeanPower <= 0 {
			t.Errorf("%s: degenerate point %+v", name, pt)
		}
		if name == "none" {
			continue
		}
		if !(pt.Lifetime > none.Lifetime) {
			t.Errorf("%s should outlive the baseline: %v !> %v", name, pt.Lifetime, none.Lifetime)
		}
	}
	// The most aggressive policy lives longest.
	if !(byName["trivial"].Lifetime > byName["predictive"].Lifetime) {
		t.Errorf("trivial should outlive predictive: %v !> %v",
			byName["trivial"].Lifetime, byName["predictive"].Lifetime)
	}
	// But the baseline serves requests fastest: mean power ordering is
	// the reverse of lifetime ordering.
	if !(none.MeanPower > byName["trivial"].MeanPower) {
		t.Errorf("baseline should draw more power: %v !> %v",
			none.MeanPower, byName["trivial"].MeanPower)
	}
	h, rows := BatteryRows(pts)
	if len(h) != 4 || len(rows) != 4 {
		t.Errorf("BatteryRows shape: %v %v", h, rows)
	}
	if _, err := newStudy().BatteryLifetime(0, 5); err == nil {
		t.Error("zero budget should error")
	}
}

func TestStreamingStartupTransient(t *testing.T) {
	pts, err := newStudy().StreamingStartupTransient([]float64{50, 500, 3000}, 100, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// At stream start the buffer is empty with near certainty; the
	// initial frames fill it, so the empty probability falls over time.
	if !(pts[0].PEmptyNoDPM > 0.5) {
		t.Errorf("buffer should start (nearly) empty: %v", pts[0].PEmptyNoDPM)
	}
	if !(pts[2].PEmptyNoDPM < pts[0].PEmptyNoDPM) {
		t.Errorf("empty probability should fall during start-up: %v !< %v",
			pts[2].PEmptyNoDPM, pts[0].PEmptyNoDPM)
	}
	// Probabilities are probabilities.
	for _, pt := range pts {
		for _, p := range []float64{pt.PEmptyDPM, pt.PEmptyNoDPM} {
			if p < -1e-9 || p > 1+1e-9 {
				t.Errorf("probability out of range at t=%v: %v", pt.Time, p)
			}
		}
	}
	h, rows := TransientRows(pts)
	if len(h) != 3 || len(rows) != 3 {
		t.Errorf("TransientRows shape: %v %v", h, rows)
	}
	// Each time is answered alone, so shuffled times give the same
	// value at each time.
	shuffled, err := newStudy().StreamingStartupTransient([]float64{3000, 50, 500}, 100, Quick)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range []int{2, 0, 1} {
		if shuffled[i] != pts[j] {
			t.Errorf("at t=%v: shuffled times give %+v, want %+v", pts[j].Time, shuffled[i], pts[j])
		}
	}
	if _, err := newStudy().StreamingStartupTransient([]float64{50, -1}, 100, Quick); err == nil {
		t.Error("a negative sample time should error")
	}
}

// TestBatteryLifetimeAsymptote checks the lifetimes against the steady
// state: once the start-up transient has died out, energy accrues at the
// Phase 2 energy rate g and requests are served at the Phase 2
// throughput, so doubling the budget B adds B ÷ g to the lifetime and
// throughput × that to the requests served, for every policy.
func TestBatteryLifetimeAsymptote(t *testing.T) {
	const budget = 5000
	r := newStudy()
	short, err := r.BatteryLifetime(budget, 5)
	if err != nil {
		t.Fatal(err)
	}
	long, err := r.BatteryLifetime(2*budget, 5)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := runPolicies(r, 5, func(_ models.Policy, _ models.RPCParams, s *pipeline.Session) (*pipeline.Phase2Report, error) {
		return s.Phase2()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range short {
		rep := steady[i]
		dL := long[i].Lifetime - pt.Lifetime
		if want := budget / rep.Values["energy"]; math.Abs(dL-want) > 1e-9*want {
			t.Errorf("%s: L(2B) − L(B) = %v, want B ÷ g = %v", pt.Policy, dL, want)
		}
		dS := long[i].RequestsServed - pt.RequestsServed
		if want := rep.Values["throughput"] * dL; math.Abs(dS-want) > 1e-9*want {
			t.Errorf("%s: served(2B) − served(B) = %v, want throughput × ΔL = %v", pt.Policy, dS, want)
		}
	}
}
