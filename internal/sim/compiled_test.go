package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/dist"
	"repro/internal/elab"
	"repro/internal/measure"
	"repro/internal/rates"
	"repro/internal/rng"
)

// TestExactTieBreaksByName races two deterministic activities with equal
// durations, so every race is an exact tie (rem == minRem). The choice
// lists zeta before alpha, so zeta comes first in the state's activities
// and gets the lower activity slot; the tie must still go to alpha, first
// in (Instance, Action) name order, at every worker count.
func TestExactTieBreaksByName(t *testing.T) {
	et := aemilia.NewElemType("T_Type", nil, nil,
		aemilia.NewBehavior("S", nil,
			aemilia.Ch(
				aemilia.Pre("zeta", rates.ExpRate(1), aemilia.Invoke("Mid")),
				aemilia.Pre("alpha", rates.ExpRate(1), aemilia.Invoke("Mid")),
			)),
		aemilia.NewBehavior("Mid", nil,
			aemilia.Pre("back", rates.ExpRate(100), aemilia.Invoke("S"))))
	a := aemilia.NewArchiType("Tie", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("X", "T_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model: m,
		Distributions: map[Activity]dist.Distribution{
			{Instance: "X", Action: "zeta"}:  dist.NewDet(1),
			{Instance: "X", Action: "alpha"}: dist.NewDet(1),
		},
		Measures: []measure.Measure{
			{Name: "zeta", Clauses: []measure.Clause{
				{Instance: "X", Action: "zeta", Kind: measure.TransReward, Value: 1},
			}},
			{Name: "alpha", Clauses: []measure.Clause{
				{Instance: "X", Action: "alpha", Kind: measure.TransReward, Value: 1},
			}},
		},
		RunLength:    500,
		Replications: 8,
		Seed:         19,
	}

	// The premise: both activity order and slot order are the reverse of
	// name order.
	p, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := p.newRunner()
	if err := r.compile(0); err != nil {
		t.Fatal(err)
	}
	acts := r.recs[0].acts
	if len(acts) != 2 || r.acts[acts[0]].Action != "zeta" || r.acts[acts[1]].Action != "alpha" || acts[0] > acts[1] {
		t.Fatalf("initial activities %v, want zeta then alpha in slot order", acts)
	}

	var base *Result
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := res.Estimates["zeta"].Mean; got != 0 {
			t.Errorf("workers=%d: zeta fired at rate %v, want 0", workers, got)
		}
		if got := res.Estimates["alpha"].Mean; got < 0.9 {
			t.Errorf("workers=%d: alpha rate %v, want ~1/1.01", workers, got)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Events != base.Events {
			t.Errorf("workers=%d: events %d != sequential %d", workers, res.Events, base.Events)
		}
		for name, want := range base.Estimates {
			if got := res.Estimates[name]; got != want {
				t.Errorf("workers=%d: %s = %+v, sequential %+v", workers, name, got, want)
			}
		}
	}
}

// TestClockStepKeepsRunningClocks drives a deterministic model through
// the timed step's three jobs at once. X alternates between S0 =
// zslow.S0 + fast.S1 and S1 = zslow.S0 + anew.S0 with det(2) zslow and
// det(1) fast and anew. Entering S1, zslow keeps its running clock (1
// left) beside a newly sampled anew (1): an exact tie that anew must win
// by name although it is second in the state's activities and in slot
// order. The run then cycles fast (t odd), anew and a zero-delay zslow (t
// even), so over [0, 100) fast fires 50 times and anew and zslow 49 times
// each. Resampling zslow in S1 would let fast tie-win in S0 instead, and
// breaking the tie by slot would starve anew.
func TestClockStepKeepsRunningClocks(t *testing.T) {
	et := aemilia.NewElemType("X_Type", nil, nil,
		aemilia.NewBehavior("S0", nil,
			aemilia.Ch(
				aemilia.Pre("zslow", rates.ExpRate(1), aemilia.Invoke("S0")),
				aemilia.Pre("fast", rates.ExpRate(1), aemilia.Invoke("S1")),
			)),
		aemilia.NewBehavior("S1", nil,
			aemilia.Ch(
				aemilia.Pre("zslow", rates.ExpRate(1), aemilia.Invoke("S0")),
				aemilia.Pre("anew", rates.ExpRate(1), aemilia.Invoke("S0")),
			)))
	a := aemilia.NewArchiType("Clock", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("X", "X_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	var ms []measure.Measure
	for _, act := range []string{"zslow", "fast", "anew"} {
		ms = append(ms, measure.Measure{Name: act, Clauses: []measure.Clause{
			{Instance: "X", Action: act, Kind: measure.TransReward, Value: 1},
		}})
	}
	cfg := Config{
		Model: m,
		Distributions: map[Activity]dist.Distribution{
			{Instance: "X", Action: "zslow"}: dist.NewDet(2),
			{Instance: "X", Action: "fast"}:  dist.NewDet(1),
			{Instance: "X", Action: "anew"}:  dist.NewDet(1),
		},
		Measures:     ms,
		RunLength:    100,
		Replications: 2,
		MaxEvents:    1000,
	}

	// The premise: in S1, zslow comes first in the activities and in slot
	// order, anew second.
	p, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := p.newRunner()
	if _, _, err := r.replicate(0, rng.New(1), 1); err != nil {
		t.Fatal(err)
	}
	var s1 []int32
	for _, rec := range r.recs {
		if len(rec.acts) == 2 && r.acts[rec.acts[1]].Action == "anew" {
			s1 = rec.acts
		}
	}
	if s1 == nil || r.acts[s1[0]].Action != "zslow" || s1[0] > s1[1] {
		t.Fatalf("no state with activities zslow then anew in slot order")
	}

	want := map[string]float64{"fast": 0.5, "anew": 0.49, "zslow": 0.49}
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Events != 2*148 {
			t.Errorf("workers=%d: %d events, want %d", workers, res.Events, 2*148)
		}
		for name, w := range want {
			if got := res.Estimates[name].Mean; math.Abs(got-w) > 1e-12 {
				t.Errorf("workers=%d: %s fired at rate %v, want %v", workers, name, got, w)
			}
		}
	}
}

// passivePairModel attaches P1.a to Q1.a, both passive, so the
// synchronization has no rate of its own. In P an immediate "go" is
// enabled beside it; in R the exponential "back" is, and — when
// timedInR — the passive pair as well.
func passivePairModel(t *testing.T, timedInR bool) *elab.Model {
	t.Helper()
	r := aemilia.Pre("back", rates.ExpRate(1), aemilia.Invoke("P"))
	if timedInR {
		r = aemilia.Ch(r, aemilia.Pre("a", rates.PassiveRate(), aemilia.Invoke("R")))
	}
	pt := aemilia.NewElemType("PA", nil, []string{"a"},
		aemilia.NewBehavior("P", nil,
			aemilia.Ch(
				aemilia.Pre("a", rates.PassiveRate(), aemilia.Invoke("P")),
				aemilia.Pre("go", rates.Inf(1, 1), aemilia.Invoke("R")),
			)),
		aemilia.NewBehavior("R", nil, r))
	qt := aemilia.NewElemType("QA", []string{"a"}, nil,
		aemilia.NewBehavior("Q", nil, aemilia.Pre("a", rates.PassiveRate(), aemilia.Invoke("Q"))))
	a := aemilia.NewArchiType("PQ",
		[]*aemilia.ElemType{pt, qt},
		[]*aemilia.Instance{aemilia.NewInstance("P1", "PA"), aemilia.NewInstance("Q1", "QA")},
		[]aemilia.Attachment{aemilia.Attach("P1", "a", "Q1", "a")})
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNoDistributionIsLazy pins "resolve distributions eagerly, fail
// lazily": an activity without a distribution is an error only when a
// timed step must sample its clock, not when an immediate action
// pre-empts the state it is enabled in.
func TestNoDistributionIsLazy(t *testing.T) {
	backRate := []measure.Measure{{Name: "back", Clauses: []measure.Clause{
		{Instance: "P1", Action: "back", Kind: measure.TransReward, Value: 1},
	}}}
	res, err := Run(Config{
		Model: passivePairModel(t, false), Measures: backRate,
		RunLength: 200, Replications: 2, Seed: 3,
	})
	if err != nil {
		t.Fatalf("pre-empted passive pair: %v", err)
	}
	if got := res.Estimates["back"].Mean; got < 0.5 {
		t.Errorf("back rate %v, want ~1", got)
	}

	_, err = Run(Config{
		Model: passivePairModel(t, true), Measures: backRate,
		RunLength: 200, Replications: 2, Seed: 3,
	})
	if !errors.Is(err, ErrNoDistribution) {
		t.Fatalf("timed passive pair: want ErrNoDistribution, got %v", err)
	}
	if want := "P1.a (label P1.a#Q1.a)"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
}

// TestReplicateZeroAllocsPerEvent gates the compiled event loop: once a
// runner's memo holds every state of the model, an event allocates
// nothing, so a replication four times as long allocates exactly as much.
func TestReplicateZeroAllocsPerEvent(t *testing.T) {
	p, err := newPlan(Config{
		Model:     workRestModel(t, 2, 1),
		Measures:  workRestMeasures,
		RunLength: 1000,
		MaxEvents: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := p.newRunner()
	rnd := rng.New(1)
	if _, _, err := r.replicate(0, rnd, 1); err != nil {
		t.Fatal(err)
	}
	if len(r.recs) != 2 || !r.recs[0].ready || !r.recs[1].ready {
		t.Fatalf("memo holds %d states after warm-up, want 2 compiled ones", len(r.recs))
	}
	allocs := func(runLength float64) (float64, int64) {
		p.cfg.RunLength = runLength
		var events int64
		n := testing.AllocsPerRun(10, func() {
			_, ev, err := r.replicate(0, rnd, 1)
			if err != nil {
				t.Fatal(err)
			}
			events = ev
		})
		return n, events
	}
	short, shortEvents := allocs(1000)
	long, longEvents := allocs(4000)
	if longEvents < 3*shortEvents {
		t.Fatalf("events %d at 4L vs %d at L: the long run is not longer", longEvents, shortEvents)
	}
	if short != long {
		t.Errorf("allocs per replication: %v at L, %v at 4L (%d vs %d events); the event loop allocates",
			short, long, shortEvents, longEvents)
	}
}

// TestUnknownOverrideRejected checks that a duration override naming an
// instance the model lacks, or an action its instance does not have, is
// an error naming every bad key — not silently ignored, which would leave
// the activity on its exponential rate.
func TestUnknownOverrideRejected(t *testing.T) {
	m := workRestModel(t, 2, 1)
	for _, c := range []struct {
		name  string
		dists map[Activity]dist.Distribution
		want  string
	}{
		{"unknown instance", map[Activity]dist.Distribution{
			{Instance: "W", Action: "finish"}: dist.NewDet(1),
			{Instance: "V", Action: "finish"}: dist.NewDet(1),
		}, "override for V.finish:"},
		{"unknown action", map[Activity]dist.Distribution{
			{Instance: "W", Action: "finsh"}: dist.NewDet(1),
		}, "override for W.finsh:"},
		{"every bad key, sorted", map[Activity]dist.Distribution{
			{Instance: "W", Action: "rest"}:     dist.NewDet(1),
			{Instance: "A", Action: "x"}:        dist.NewDet(1),
			{Instance: "W", Action: "mon_work"}: dist.NewDet(1),
		}, "override for A.x, W.rest:"},
	} {
		_, err := Run(Config{
			Model: m, Distributions: c.dists, Measures: workRestMeasures,
			RunLength: 10, Replications: 1,
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
