package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/dist"
	"repro/internal/elab"
	"repro/internal/expr"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/rates"
)

// workRestModel: one instance alternating Work -finish-> Rest -resume->
// Work, with monitor self-loops for state rewards.
func workRestModel(t *testing.T, finishRate, resumeRate float64) *elab.Model {
	t.Helper()
	et := aemilia.NewElemType("W_Type", nil, []string{"mon_work", "mon_rest"},
		aemilia.NewBehavior("Work", nil,
			aemilia.Ch(
				aemilia.Pre("finish", rates.ExpRate(finishRate), aemilia.Invoke("Rest")),
				aemilia.Pre("mon_work", rates.PassiveRate(), aemilia.Invoke("Work")),
			)),
		aemilia.NewBehavior("Rest", nil,
			aemilia.Ch(
				aemilia.Pre("resume", rates.ExpRate(resumeRate), aemilia.Invoke("Work")),
				aemilia.Pre("mon_rest", rates.PassiveRate(), aemilia.Invoke("Rest")),
			)),
	)
	a := aemilia.NewArchiType("WR", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("W", "W_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var workRestMeasures = []measure.Measure{
	{Name: "p_work", Clauses: []measure.Clause{
		{Instance: "W", Action: "mon_work", Kind: measure.StateReward, Value: 1},
	}},
	{Name: "finish_rate", Clauses: []measure.Clause{
		{Instance: "W", Action: "finish", Kind: measure.TransReward, Value: 1},
	}},
}

func TestExponentialMatchesAnalytic(t *testing.T) {
	m := workRestModel(t, 2, 1)
	res, err := Run(Config{
		Model:        m,
		Measures:     workRestMeasures,
		RunLength:    2000,
		Warmup:       100,
		Replications: 10,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	// P(work) = 1/3, finish rate = 2/3. Allow 3 half-widths of slack so a
	// single unlucky 90% interval does not flake the suite.
	pw := res.Estimates["p_work"]
	if math.Abs(pw.Mean-1.0/3) > 3*pw.HalfWidth {
		t.Errorf("p_work = %v too far from 1/3", pw)
	}
	fr := res.Estimates["finish_rate"]
	if math.Abs(fr.Mean-2.0/3) > 3*fr.HalfWidth {
		t.Errorf("finish_rate = %v too far from 2/3", fr)
	}
	if res.Events == 0 || res.Replications != 10 {
		t.Errorf("bookkeeping wrong: %+v", res)
	}
}

func TestDeterministicDurations(t *testing.T) {
	m := workRestModel(t, 1, 1) // rates overridden below
	res, err := Run(Config{
		Model: m,
		Distributions: map[Activity]dist.Distribution{
			{Instance: "W", Action: "finish"}: dist.NewDet(1),
			{Instance: "W", Action: "resume"}: dist.NewDet(3),
		},
		Measures:     workRestMeasures,
		RunLength:    4000,
		Warmup:       10,
		Replications: 3,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Period 4, 1 unit working: P(work) = 0.25, finish rate = 0.25.
	pw := res.Estimates["p_work"].Mean
	if math.Abs(pw-0.25) > 0.005 {
		t.Errorf("deterministic p_work = %v, want ~0.25", pw)
	}
	fr := res.Estimates["finish_rate"].Mean
	if math.Abs(fr-0.25) > 0.005 {
		t.Errorf("deterministic finish_rate = %v, want ~0.25", fr)
	}
}

func TestDeterministicRaceAlwaysWins(t *testing.T) {
	// Two competing deterministic activities: det(0.5) always beats
	// det(2.0) because each firing moves to a state where both are
	// disabled (clocks discarded), so the loser can never catch up.
	et := aemilia.NewElemType("R_Type", nil, nil,
		aemilia.NewBehavior("S", nil,
			aemilia.Ch(
				aemilia.Pre("fast", rates.ExpRate(1), aemilia.Invoke("Mid")),
				aemilia.Pre("slow", rates.ExpRate(1), aemilia.Invoke("Mid")),
			)),
		aemilia.NewBehavior("Mid", nil,
			aemilia.Pre("back", rates.ExpRate(100), aemilia.Invoke("S"))))
	a := aemilia.NewArchiType("R", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("X", "R_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Model: m,
		Distributions: map[Activity]dist.Distribution{
			{Instance: "X", Action: "fast"}: dist.NewDet(0.5),
			{Instance: "X", Action: "slow"}: dist.NewDet(2.0),
		},
		Measures: []measure.Measure{
			{Name: "fast", Clauses: []measure.Clause{
				{Instance: "X", Action: "fast", Kind: measure.TransReward, Value: 1},
			}},
			{Name: "slow", Clauses: []measure.Clause{
				{Instance: "X", Action: "slow", Kind: measure.TransReward, Value: 1},
			}},
		},
		RunLength:    1000,
		Replications: 2,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Estimates["slow"].Mean; got != 0 {
		t.Errorf("slow fired at rate %v, want 0", got)
	}
	// Cycle length ≈ 0.5 (race) + 0.01 (back) → rate ≈ 1.96.
	if got := res.Estimates["fast"].Mean; math.Abs(got-1/0.51) > 0.05 {
		t.Errorf("fast rate = %v, want ~%v", got, 1/0.51)
	}
}

func TestEnablingMemoryPersistsClock(t *testing.T) {
	// A det(1.5) "timer" stays enabled across an unrelated instance's
	// faster cycling; with enabling memory it still fires at rate ~1/1.5.
	timer := aemilia.NewElemType("T_Type", nil, nil,
		aemilia.NewBehavior("T", nil,
			aemilia.Pre("tick", rates.ExpRate(1), aemilia.Invoke("T"))))
	noise := aemilia.NewElemType("N_Type", nil, nil,
		aemilia.NewBehavior("N", nil,
			aemilia.Pre("hum", rates.ExpRate(50), aemilia.Invoke("N"))))
	a := aemilia.NewArchiType("TN",
		[]*aemilia.ElemType{timer, noise},
		[]*aemilia.Instance{
			aemilia.NewInstance("T", "T_Type"),
			aemilia.NewInstance("N", "N_Type"),
		}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Model: m,
		Distributions: map[Activity]dist.Distribution{
			{Instance: "T", Action: "tick"}: dist.NewDet(1.5),
		},
		Measures: []measure.Measure{
			{Name: "tick", Clauses: []measure.Clause{
				{Instance: "T", Action: "tick", Kind: measure.TransReward, Value: 1},
			}},
		},
		RunLength:    3000,
		Replications: 2,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Estimates["tick"].Mean
	if math.Abs(got-1/1.5) > 0.01 {
		t.Errorf("tick rate = %v, want ~%v (clock must survive interleaving)", got, 1/1.5)
	}
}

func TestImmediateWeights(t *testing.T) {
	// After each exp step, an immediate 1:3 branch fires; count the sides.
	et := aemilia.NewElemType("B_Type", nil, nil,
		aemilia.NewBehavior("S", nil,
			aemilia.Pre("step", rates.ExpRate(1), aemilia.Invoke("Pick"))),
		aemilia.NewBehavior("Pick", nil,
			aemilia.Ch(
				aemilia.Pre("left", rates.Inf(1, 1), aemilia.Invoke("S")),
				aemilia.Pre("right", rates.Inf(1, 3), aemilia.Invoke("S")),
			)))
	a := aemilia.NewArchiType("B", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("X", "B_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Model: m,
		Measures: []measure.Measure{
			{Name: "left", Clauses: []measure.Clause{
				{Instance: "X", Action: "left", Kind: measure.TransReward, Value: 1},
			}},
			{Name: "right", Clauses: []measure.Clause{
				{Instance: "X", Action: "right", Kind: measure.TransReward, Value: 1},
			}},
		},
		RunLength:    5000,
		Replications: 4,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	left, right := res.Estimates["left"].Mean, res.Estimates["right"].Mean
	ratio := left / (left + right)
	if math.Abs(ratio-0.25) > 0.02 {
		t.Errorf("left fraction = %v, want ~0.25", ratio)
	}
	if math.Abs(left+right-1) > 0.05 {
		t.Errorf("total branch rate = %v, want ~1", left+right)
	}
}

func TestHigherPriorityPreempts(t *testing.T) {
	et := aemilia.NewElemType("P_Type", nil, nil,
		aemilia.NewBehavior("S", nil,
			aemilia.Pre("step", rates.ExpRate(1), aemilia.Invoke("Pick"))),
		aemilia.NewBehavior("Pick", nil,
			aemilia.Ch(
				aemilia.Pre("low", rates.Inf(1, 100), aemilia.Invoke("S")),
				aemilia.Pre("high", rates.Inf(2, 1), aemilia.Invoke("S")),
			)))
	a := aemilia.NewArchiType("P", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("X", "P_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Model: m,
		Measures: []measure.Measure{
			{Name: "low", Clauses: []measure.Clause{
				{Instance: "X", Action: "low", Kind: measure.TransReward, Value: 1},
			}},
		},
		RunLength:    500,
		Replications: 2,
		Seed:         13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Estimates["low"].Mean; got != 0 {
		t.Errorf("low-priority branch fired at rate %v, want 0", got)
	}
}

func TestCrossValidationAgainstCTMC(t *testing.T) {
	// The paper's Sect. 5.1 validation in miniature: simulate with
	// exponential distributions and compare to the analytic solution.
	buf := aemilia.NewElemType("Buffer_Type",
		[]string{"put"}, []string{"get", "mon_busy"},
		aemilia.NewBehavior("Buffer", []aemilia.Param{aemilia.IntParam("n")},
			aemilia.Ch(
				aemilia.When(expr.Bin(expr.OpLt, expr.Ref("n"), expr.Int(4)),
					aemilia.Pre("put", rates.PassiveRate(),
						aemilia.Invoke("Buffer", expr.Bin(expr.OpAdd, expr.Ref("n"), expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpGt, expr.Ref("n"), expr.Int(0)),
					aemilia.Pre("get", rates.PassiveRate(),
						aemilia.Invoke("Buffer", expr.Bin(expr.OpSub, expr.Ref("n"), expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpGt, expr.Ref("n"), expr.Int(0)),
					aemilia.Pre("mon_busy", rates.PassiveRate(), aemilia.Invoke("Buffer", expr.Ref("n")))),
			)))
	prod := aemilia.NewElemType("Prod_Type", nil, []string{"put"},
		aemilia.NewBehavior("P", nil, aemilia.Pre("put", rates.ExpRate(2), aemilia.Invoke("P"))))
	cons := aemilia.NewElemType("Cons_Type", []string{"get"}, nil,
		aemilia.NewBehavior("C", nil, aemilia.Pre("get", rates.ExpRate(3), aemilia.Invoke("C"))))
	a := aemilia.NewArchiType("PC",
		[]*aemilia.ElemType{buf, prod, cons},
		[]*aemilia.Instance{
			aemilia.NewInstance("B", "Buffer_Type", expr.Int(0)),
			aemilia.NewInstance("P", "Prod_Type"),
			aemilia.NewInstance("C", "Cons_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("P", "put", "B", "put"),
			aemilia.Attach("B", "get", "C", "get"),
		})
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	measures := []measure.Measure{
		{Name: "p_busy", Clauses: []measure.Clause{
			{Instance: "B", Action: "mon_busy", Kind: measure.StateReward, Value: 1},
		}},
		{Name: "throughput", Clauses: []measure.Clause{
			{Instance: "C", Action: "get", Kind: measure.TransReward, Value: 1},
		}},
	}
	l, err := lts.Generate(m, lts.GenerateOptions{Predicates: measure.StatePreds(measures)})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ctmc.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := chain.SteadyState(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var exact [2]float64
	for i, ms := range measures {
		v, err := ms.EvalCTMC(chain, pi)
		if err != nil {
			t.Fatal(err)
		}
		exact[i] = v
	}

	res, err := Run(Config{
		Model:        m,
		Measures:     measures,
		RunLength:    2000,
		Warmup:       50,
		Replications: 10,
		Seed:         17,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range measures {
		ci := res.Estimates[ms.Name]
		// Allow a slightly widened interval for finite-run bias.
		slack := 3 * ci.HalfWidth
		if math.Abs(ci.Mean-exact[i]) > math.Max(slack, 0.01) {
			t.Errorf("%s: simulated %v vs exact %v", ms.Name, ci, exact[i])
		}
	}
}

func TestReproducibleWithSameSeed(t *testing.T) {
	m := workRestModel(t, 2, 1)
	run := func() float64 {
		res, err := Run(Config{
			Model: m, Measures: workRestMeasures,
			RunLength: 100, Replications: 2, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Estimates["p_work"].Mean
	}
	if run() != run() {
		t.Error("same seed produced different estimates")
	}
}

func TestDeadlockRun(t *testing.T) {
	et := aemilia.NewElemType("D_Type", nil, []string{"mon_done"},
		aemilia.NewBehavior("S", nil,
			aemilia.Pre("once", rates.ExpRate(1), aemilia.Invoke("Done"))),
		aemilia.NewBehavior("Done", nil,
			aemilia.Pre("mon_done", rates.PassiveRate(), aemilia.Invoke("Done"))))
	a := aemilia.NewArchiType("D", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("X", "D_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Model: m,
		Measures: []measure.Measure{
			{Name: "p_done", Clauses: []measure.Clause{
				{Instance: "X", Action: "mon_done", Kind: measure.StateReward, Value: 1},
			}},
		},
		RunLength:    1000,
		Replications: 2,
		Seed:         23,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Done is reached within a few units and is locally "enabled" for the
	// monitor forever after; the time average should be close to 1.
	if got := res.Estimates["p_done"].Mean; got < 0.99 {
		t.Errorf("p_done = %v, want ~1", got)
	}
}

func TestErrorCases(t *testing.T) {
	m := workRestModel(t, 1, 1)
	if _, err := Run(Config{Model: nil, RunLength: 1}); err == nil {
		t.Error("nil model should error")
	}
	if _, err := Run(Config{Model: m}); err == nil {
		t.Error("zero run length should error")
	}
	// A negative warm-up used to shorten the measured window while values
	// were still divided by RunLength (p_work 0.255 instead of 0.5).
	for _, bad := range []Config{
		{RunLength: 1000, Warmup: -500},
		{RunLength: 1000, Warmup: math.NaN()},
		{RunLength: 1000, Warmup: math.Inf(1)},
		{RunLength: math.NaN()},
		{RunLength: math.Inf(1)},
		{RunLength: 1000, Batches: -1},
	} {
		bad.Model, bad.Measures = m, workRestMeasures
		if _, err := Run(bad); err == nil {
			t.Errorf("RunLength %v, Warmup %v, Batches %d should error",
				bad.RunLength, bad.Warmup, bad.Batches)
		}
	}

	// Passive-passive composition without a distribution override fails.
	pt := aemilia.NewElemType("PA", nil, []string{"a"},
		aemilia.NewBehavior("P", nil, aemilia.Pre("a", rates.PassiveRate(), aemilia.Invoke("P"))))
	qt := aemilia.NewElemType("QA", []string{"a"}, nil,
		aemilia.NewBehavior("Q", nil, aemilia.Pre("a", rates.PassiveRate(), aemilia.Invoke("Q"))))
	a := aemilia.NewArchiType("PQ",
		[]*aemilia.ElemType{pt, qt},
		[]*aemilia.Instance{aemilia.NewInstance("P1", "PA"), aemilia.NewInstance("Q1", "QA")},
		[]aemilia.Attachment{aemilia.Attach("P1", "a", "Q1", "a")})
	mm, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Model: mm, RunLength: 10, Replications: 1})
	if !errors.Is(err, ErrNoDistribution) {
		t.Errorf("want ErrNoDistribution, got %v", err)
	}
	// With an override it runs.
	if _, err := Run(Config{
		Model: mm, RunLength: 10, Replications: 1,
		Distributions: map[Activity]dist.Distribution{
			{Instance: "P1", Action: "a"}: dist.NewDet(1),
		},
	}); err != nil {
		t.Errorf("override should fix it: %v", err)
	}
}

func TestImmediateLivelockDetected(t *testing.T) {
	et := aemilia.NewElemType("L_Type", nil, nil,
		aemilia.NewBehavior("S", nil,
			aemilia.Pre("spin", rates.Inf(1, 1), aemilia.Invoke("S"))))
	a := aemilia.NewArchiType("L", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("X", "L_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Model: m, RunLength: 1, Replications: 1})
	if !errors.Is(err, ErrImmediateLivelock) {
		t.Errorf("want ErrImmediateLivelock, got %v", err)
	}
}

func TestBatchMeansMatchesReplications(t *testing.T) {
	m := workRestModel(t, 2, 1)
	batch, err := Run(Config{
		Model:     m,
		Measures:  workRestMeasures,
		RunLength: 500,
		Warmup:    50,
		Batches:   20,
		Seed:      31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Replications != 20 {
		t.Errorf("batch observations = %d, want 20", batch.Replications)
	}
	pw := batch.Estimates["p_work"]
	if math.Abs(pw.Mean-1.0/3) > math.Max(3*pw.HalfWidth, 0.02) {
		t.Errorf("batch-means p_work = %v too far from 1/3", pw)
	}
	fr := batch.Estimates["finish_rate"]
	if math.Abs(fr.Mean-2.0/3) > math.Max(3*fr.HalfWidth, 0.02) {
		t.Errorf("batch-means finish_rate = %v too far from 2/3", fr)
	}
	// A single warm-up is paid: events should be well below 20 separate
	// replications of warmup+run.
	if batch.Events == 0 {
		t.Error("no events simulated")
	}
}

func TestBatchMeansDeterministic(t *testing.T) {
	m := workRestModel(t, 2, 1)
	run := func() float64 {
		res, err := Run(Config{
			Model: m, Measures: workRestMeasures,
			RunLength: 100, Batches: 5, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Estimates["p_work"].Mean
	}
	if run() != run() {
		t.Error("batch-means not reproducible")
	}
}

func TestDerivedMeasureInSimulation(t *testing.T) {
	m := workRestModel(t, 2, 1)
	ms := append(append([]measure.Measure(nil), workRestMeasures...),
		measure.Measure{Name: "work_per_finish", Derived: true, Num: "p_work", Den: "finish_rate"})
	res, err := Run(Config{
		Model: m, Measures: ms,
		RunLength: 1000, Warmup: 50, Replications: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := res.Estimates["work_per_finish"]
	if !ok {
		t.Fatal("derived estimate missing")
	}
	// P(work)/rate(finish) = (1/3)/(2/3) = 1/2.
	if math.Abs(ci.Mean-0.5) > 0.05 {
		t.Errorf("derived ratio = %v, want ~0.5", ci.Mean)
	}
	if ci.HalfWidth <= 0 {
		t.Error("derived interval should have positive half-width")
	}
}
