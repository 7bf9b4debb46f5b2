package models

import (
	"strings"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
)

// paperFormula is the diagnostic formula of paper Sect. 3.1, verbatim.
const paperFormula = "EXISTS_WEAK_TRANS(LABEL(C.send_rpc_packet#RCS.get_packet); " +
	"REACHED_STATE_SAT(NOT(EXISTS_WEAK_TRANS(LABEL(RSC.deliver_packet#C.receive_result_packet); " +
	"REACHED_STATE_SAT(TRUE)))))"

// session opens an ephemeral pipeline session on an already-built
// architectural description.
func session(a *aemilia.ArchiType, measures []measure.Measure) *pipeline.Session {
	return pipeline.NewSession(pipeline.Spec{
		Build:    func() (*aemilia.ArchiType, error) { return a, nil },
		Measures: measures,
	}, pipeline.Config{})
}

func rpcSpec() noninterference.Spec {
	return noninterference.Spec{
		High: lts.LabelMatcherByNames(RPCHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	}
}

func TestRPCSimplifiedFailsWithPaperFormula(t *testing.T) {
	a, err := BuildRPCSimplified()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := session(a, nil).Phase1(rpcSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Transparent {
		t.Fatal("the simplified rpc must fail the noninterference check (paper Sect. 3.1)")
	}
	if rep.Result.FormulaText != paperFormula {
		t.Errorf("distinguishing formula differs from the paper's:\n got %s\nwant %s",
			rep.Result.FormulaText, paperFormula)
	}
	if rep.States == 0 || rep.Transitions == 0 {
		t.Error("state space not reported")
	}
}

func TestRPCRevisedPassesNoninterference(t *testing.T) {
	p := DefaultRPCParams()
	p.Mode = Functional
	a, err := BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := session(a, nil).Phase1(rpcSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Transparent {
		t.Fatalf("the revised rpc must pass (paper Sect. 3.1); formula: %s",
			rep.Result.FormulaText)
	}
}

func TestRPCRevisedWithoutDPMStillPasses(t *testing.T) {
	// Removing the DPM's ability to act must be a no-op for the check.
	p := DefaultRPCParams()
	p.Mode = Functional
	p.WithDPM = false
	a, err := BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := session(a, nil).Phase1(rpcSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Transparent {
		t.Fatal("a DPM that never acts must be transparent")
	}
}

func TestStreamingPassesNoninterference(t *testing.T) {
	p := DefaultStreamingParams()
	p.Mode = Functional
	p.APCapacity = 2
	p.ClientCapacity = 2
	a, err := BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := session(a, nil).Phase1(noninterference.Spec{
		High: lts.LabelMatcherByNames(StreamingHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Transparent {
		t.Fatalf("streaming must pass (paper Sect. 3.2); formula: %s",
			rep.Result.FormulaText)
	}
}

func TestRPCMarkovianOrderings(t *testing.T) {
	// The with-DPM system must save energy per request at the cost of
	// throughput and waiting time (paper Fig. 3, left).
	run := func(withDPM bool) (thr, wait, eneperreq float64) {
		p := DefaultRPCParams()
		p.ShutdownTimeout = 5
		p.WithDPM = withDPM
		a, err := BuildRPCRevised(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := session(a, RPCMeasures(p)).Phase2()
		if err != nil {
			t.Fatal(err)
		}
		thr = rep.Values["throughput"]
		wait = rep.Values["waiting_time"] / thr
		eneperreq = rep.Values["energy"] / thr
		return thr, wait, eneperreq
	}
	thr1, wait1, epr1 := run(true)
	thr0, wait0, epr0 := run(false)
	if !(thr1 < thr0) {
		t.Errorf("throughput with DPM (%v) should be below without (%v)", thr1, thr0)
	}
	if !(wait1 > wait0) {
		t.Errorf("waiting time with DPM (%v) should exceed without (%v)", wait1, wait0)
	}
	if !(epr1 < epr0) {
		t.Errorf("energy/request with DPM (%v) should be below without (%v)", epr1, epr0)
	}
}

func TestRPCMarkovianTimeoutMonotonicity(t *testing.T) {
	// Shorter shutdown timeouts increase the DPM's impact: lower energy,
	// lower throughput (paper Fig. 3, left).
	eval := func(timeout float64) (thr, energy float64) {
		p := DefaultRPCParams()
		p.ShutdownTimeout = timeout
		a, err := BuildRPCRevised(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := session(a, RPCMeasures(p)).Phase2()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Values["throughput"], rep.Values["energy"] / rep.Values["throughput"]
	}
	thrShort, eprShort := eval(1)
	thrLong, eprLong := eval(20)
	if !(eprShort < eprLong) {
		t.Errorf("energy/request at timeout 1 (%v) should be below timeout 20 (%v)", eprShort, eprLong)
	}
	if !(thrShort < thrLong) {
		t.Errorf("throughput at timeout 1 (%v) should be below timeout 20 (%v)", thrShort, thrLong)
	}
}

func TestRPCZeroTimeoutIsImmediate(t *testing.T) {
	p := DefaultRPCParams()
	p.ShutdownTimeout = 0
	a, err := BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := session(a, RPCMeasures(p)).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	// Maximum DPM impact: energy per request must be below any finite
	// timeout's value.
	p5 := DefaultRPCParams()
	p5.ShutdownTimeout = 5
	a5, err := BuildRPCRevised(p5)
	if err != nil {
		t.Fatal(err)
	}
	rep5, err := session(a5, RPCMeasures(p5)).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	epr0 := rep.Values["energy"] / rep.Values["throughput"]
	epr5 := rep5.Values["energy"] / rep5.Values["throughput"]
	if !(epr0 < epr5) {
		t.Errorf("timeout 0 energy/request (%v) should be minimal (< %v)", epr0, epr5)
	}
}

func TestStreamingMarkovianOrderings(t *testing.T) {
	// Small buffers keep the chain small in tests; orderings still hold.
	run := func(withDPM bool, period float64) map[string]float64 {
		p := DefaultStreamingParams()
		p.APCapacity = 3
		p.ClientCapacity = 3
		p.WithDPM = withDPM
		p.AwakePeriod = period
		a, err := BuildStreaming(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := session(a, StreamingMeasures(p)).Phase2()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Values
	}
	v0 := run(false, 0)
	v100 := run(true, 100)
	v400 := run(true, 400)

	ef := func(v map[string]float64) float64 { return v["nic_energy"] / v["frames_delivered"] }
	miss := func(v map[string]float64) float64 {
		return v["frames_missed"] / (v["frames_delivered"] + v["frames_missed"])
	}
	if !(ef(v100) < ef(v0)) {
		t.Errorf("energy/frame with DPM (%v) should be below without (%v)", ef(v100), ef(v0))
	}
	if !(ef(v400) < ef(v100)) {
		t.Errorf("energy/frame should decrease with awake period: %v !< %v", ef(v400), ef(v100))
	}
	if !(miss(v400) > miss(v100)) {
		t.Errorf("miss should increase with awake period: %v !> %v", miss(v400), miss(v100))
	}
	if !(miss(v100) >= miss(v0)) {
		t.Errorf("miss with DPM (%v) should not be below without (%v)", miss(v100), miss(v0))
	}
}

func TestDistributionsCoverActivities(t *testing.T) {
	p := DefaultRPCParams()
	gen := RPCGeneralDistributions(p)
	for _, act := range []string{"prepare_result_packet", "awake"} {
		found := false
		for a := range gen {
			if a.Action == act {
				found = true
			}
		}
		if !found {
			t.Errorf("rpc general distributions missing %s", act)
		}
	}
	exp := RPCExponentialDistributions(p)
	if len(exp) != len(gen) {
		t.Errorf("exp (%d) and general (%d) overrides should cover the same activities",
			len(exp), len(gen))
	}
	// Means must agree between the two (the validation premise).
	for a, d := range gen {
		e, ok := exp[a]
		if !ok {
			t.Errorf("activity %v missing from exponential overrides", a)
			continue
		}
		if d.Mean() != e.Mean() {
			t.Errorf("activity %v: general mean %v != exponential mean %v", a, d.Mean(), e.Mean())
		}
	}

	sp := DefaultStreamingParams()
	sg, se := StreamingGeneralDistributions(sp), StreamingExponentialDistributions(sp)
	if len(sg) != len(se) {
		t.Errorf("streaming overrides mismatch: %d vs %d", len(sg), len(se))
	}
	for a, d := range sg {
		if e, ok := se[a]; !ok || d.Mean() != e.Mean() {
			t.Errorf("streaming activity %v means disagree", a)
		}
	}
}

func TestNoDPMOmitsInstance(t *testing.T) {
	p := DefaultStreamingParams()
	p.WithDPM = false
	a, err := BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Instance("DPM"); ok {
		t.Error("no-DPM streaming should omit the DPM instance")
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Successors(m.Initial()); err != nil {
		t.Fatal(err)
	}
}

func TestRPCFunctionalHasNoRates(t *testing.T) {
	p := DefaultRPCParams()
	p.Mode = Functional
	a, err := BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	text := aemilia.Format(a)
	for _, bad := range []string{"exp(", "inf("} {
		if strings.Contains(text, bad) {
			t.Errorf("functional model contains rate annotation %q", bad)
		}
	}
}

func TestShutdownInterruptsServiceVariant(t *testing.T) {
	// The busy-sensitive server of Sect. 2.1 ("the shutdown interrupts
	// the service"), driven by the trivial policy so that busy-time
	// shutdowns actually occur. Even with the timeout client, aborting
	// services is observably different from never aborting them — which
	// is exactly why the paper's revised design makes the server
	// insensitive to shutdowns while busy ("we recognize that the DPM
	// cannot shut down the server while it is busy"). The checker must
	// therefore detect interference and produce a witness formula.
	p := DefaultRPCParams()
	p.Mode = Functional
	p.Policy = PolicyTrivial
	p.ShutdownInterruptsService = true
	a, err := BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := session(a, nil).Phase1(rpcSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Transparent {
		t.Fatal("busy-time aborts must be detected as interference")
	}
	if rep.Result.FormulaText == "" {
		t.Fatal("missing witness formula")
	}

	// Performance: aborting services loses work, so the interrupting
	// variant completes fewer requests than the idle-only variant under
	// the same trivial policy.
	solve := func(interrupts bool) map[string]float64 {
		q := DefaultRPCParams()
		q.Policy = PolicyTrivial
		q.ShutdownTimeout = 5
		q.ShutdownInterruptsService = interrupts
		arch, err := BuildRPCRevised(q)
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := session(arch, RPCMeasures(q)).Phase2()
		if err != nil {
			t.Fatal(err)
		}
		return rep2.Values
	}
	vi := solve(true)
	vn := solve(false)
	if !(vi["throughput"] < vn["throughput"]) {
		t.Errorf("interrupting shutdowns should cost throughput: %v !< %v",
			vi["throughput"], vn["throughput"])
	}
	// Aborted services waste work: every interrupted request pays an
	// extra wake-up and a re-service, so the energy per completed request
	// is strictly worse than under the idle-only discipline.
	if !(vi["energy"]/vi["throughput"] > vn["energy"]/vn["throughput"]) {
		t.Errorf("interrupting shutdowns should waste energy per request: %v !> %v",
			vi["energy"]/vi["throughput"], vn["energy"]/vn["throughput"])
	}
}

func TestPolicyString(t *testing.T) {
	for pol, want := range map[Policy]string{
		PolicyTimeout: "timeout", PolicyTrivial: "trivial",
		PolicyPredictive: "predictive", PolicyNone: "none", Policy(0): "unknown",
	} {
		if got := pol.String(); got != want {
			t.Errorf("Policy(%d).String = %q, want %q", pol, got, want)
		}
	}
}

func TestPredictivePolicyBuildsAndSolves(t *testing.T) {
	p := DefaultRPCParams()
	p.Policy = PolicyPredictive
	p.ShutdownTimeout = 5
	a, err := BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := session(a, RPCMeasures(p)).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Values["throughput"] <= 0 {
		t.Error("predictive policy produced no throughput")
	}
	// Functional flavour passes noninterference too.
	p.Mode = Functional
	a, err = BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := session(a, nil).Phase1(rpcSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Result.Transparent {
		t.Errorf("predictive DPM should be transparent; formula: %s", rep1.Result.FormulaText)
	}
}

func TestModelsDeadlockFree(t *testing.T) {
	// Every case-study variant must be deadlock-free: a deadlock would
	// invalidate both the CTMC analysis (absorbing artefact) and the
	// transparency argument.
	var archs []*aemilia.ArchiType
	for _, pol := range []Policy{PolicyNone, PolicyTrivial, PolicyTimeout, PolicyPredictive} {
		p := DefaultRPCParams()
		p.Policy = pol
		p.WithDPM = pol != PolicyNone
		a, err := BuildRPCRevised(p)
		if err != nil {
			t.Fatal(err)
		}
		archs = append(archs, a)
	}
	pi := DefaultRPCParams()
	pi.Policy = PolicyTrivial
	pi.ShutdownInterruptsService = true
	ai, err := BuildRPCRevised(pi)
	if err != nil {
		t.Fatal(err)
	}
	archs = append(archs, ai)
	for _, withDPM := range []bool{true, false} {
		sp := DefaultStreamingParams()
		sp.APCapacity, sp.ClientCapacity = 3, 3
		sp.WithDPM = withDPM
		sp.DeadlineDebtCap = 4
		a, err := BuildStreaming(sp)
		if err != nil {
			t.Fatal(err)
		}
		archs = append(archs, a)
	}
	for i, a := range archs {
		m, err := elab.Elaborate(a)
		if err != nil {
			t.Fatalf("model %d (%s): %v", i, a.Name, err)
		}
		l, err := lts.Generate(m, lts.GenerateOptions{})
		if err != nil {
			t.Fatalf("model %d (%s): %v", i, a.Name, err)
		}
		if dl := l.Deadlocks(); len(dl) > 0 {
			t.Errorf("model %d (%s): %d deadlocked states (e.g. state %d)",
				i, a.Name, len(dl), dl[0])
		}
	}
}
