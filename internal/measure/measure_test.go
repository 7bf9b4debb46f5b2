package measure

import (
	"math"
	"strings"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/rates"
	"repro/internal/stats"
)

func TestParse(t *testing.T) {
	src := `
MEASURE throughput IS
  ENABLED(C.process_result_packet) -> TRANS_REWARD(1);
MEASURE waiting_time IS
  ENABLED(C.monitor_waiting_client) -> STATE_REWARD(1);
MEASURE energy IS
  ENABLED(S.monitor_idle_server)    -> STATE_REWARD(2)
  ENABLED(S.monitor_busy_server)    -> STATE_REWARD(3)
  ENABLED(S.monitor_awaking_server) -> STATE_REWARD(2)
`
	ms, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(ms) != 3 {
		t.Fatalf("measures = %d, want 3", len(ms))
	}
	if ms[0].Name != "throughput" || len(ms[0].Clauses) != 1 {
		t.Errorf("throughput parsed wrong: %+v", ms[0])
	}
	c := ms[0].Clauses[0]
	if c.Instance != "C" || c.Action != "process_result_packet" ||
		c.Kind != TransReward || c.Value != 1 {
		t.Errorf("clause = %+v", c)
	}
	if ms[2].Name != "energy" || len(ms[2].Clauses) != 3 {
		t.Errorf("energy parsed wrong: %+v", ms[2])
	}
	if ms[2].Clauses[1].Value != 3 || ms[2].Clauses[1].Kind != StateReward {
		t.Errorf("energy clause 2 = %+v", ms[2].Clauses[1])
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name, src, want string
	}{
		{"empty", "", "no MEASURE"},
		{"no-is", "MEASURE x ENABLED(a.b) -> STATE_REWARD(1)", `expected "IS"`},
		{"bad-pred", "MEASURE x IS ENABLED(nodot) -> STATE_REWARD(1)", "Instance.action"},
		{"bad-kind", "MEASURE x IS ENABLED(a.b) -> OTHER_REWARD(1)", "STATE_REWARD or TRANS_REWARD"},
		{"no-clauses", "MEASURE x IS ; MEASURE y IS ENABLED(a.b) -> STATE_REWARD(1)", "no clauses"},
		{"bad-value", "MEASURE x IS ENABLED(a.b) -> STATE_REWARD(zz)", "invalid reward value"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want containing %q", err, tt.want)
			}
		})
	}
}

func TestStatePredsDedup(t *testing.T) {
	ms, err := Parse(`
MEASURE a IS ENABLED(X.m) -> STATE_REWARD(1) ENABLED(X.m) -> STATE_REWARD(2);
MEASURE b IS ENABLED(X.m) -> STATE_REWARD(3) ENABLED(Y.n) -> TRANS_REWARD(1)
`)
	if err != nil {
		t.Fatal(err)
	}
	preds := StatePreds(ms)
	if len(preds) != 1 || preds[0].Instance != "X" || preds[0].Action != "m" {
		t.Errorf("preds = %+v, want just X.m", preds)
	}
}

// workRest builds a two-state worker: Work (exp 2) <-> Rest (exp 1), with
// passive unattached monitor self-loops in each phase.
func workRest(t *testing.T) (*ctmc.CTMC, []float64) {
	t.Helper()
	et := aemilia.NewElemType("W_Type", nil, []string{"mon_work", "mon_rest"},
		aemilia.NewBehavior("Work", nil,
			aemilia.Ch(
				aemilia.Pre("finish", rates.ExpRate(2), aemilia.Invoke("Rest")),
				aemilia.Pre("mon_work", rates.PassiveRate(), aemilia.Invoke("Work")),
			)),
		aemilia.NewBehavior("Rest", nil,
			aemilia.Ch(
				aemilia.Pre("resume", rates.ExpRate(1), aemilia.Invoke("Work")),
				aemilia.Pre("mon_rest", rates.PassiveRate(), aemilia.Invoke("Rest")),
			)),
	)
	a := aemilia.NewArchiType("WR", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("W", "W_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	ms := []Measure{
		{Name: "p_work", Clauses: []Clause{
			{Instance: "W", Action: "mon_work", Kind: StateReward, Value: 1},
		}},
	}
	l, err := lts.Generate(m, lts.GenerateOptions{Predicates: StatePreds(ms)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctmc.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := c.SteadyStateTraced(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c, pi
}

// evalOne compiles the base measure m alone against c and evaluates it
// on pi.
func evalOne(m Measure, c *ctmc.CTMC, pi []float64) (float64, error) {
	cm, err := Compile([]Measure{m}, c)
	if err != nil {
		return 0, err
	}
	return cm.Eval(c, pi, nil)[m.Name], nil
}

func TestEvalCTMCStateReward(t *testing.T) {
	c, pi := workRest(t)
	m := Measure{Name: "p_work", Clauses: []Clause{
		{Instance: "W", Action: "mon_work", Kind: StateReward, Value: 1},
	}}
	got, err := evalOne(m, c, pi)
	if err != nil {
		t.Fatal(err)
	}
	// P(work) = (1/2) / (1/2 + 1) = 1/3.
	if math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("P(work) = %v, want 1/3", got)
	}
	// Scaled reward.
	m.Clauses[0].Value = 6
	got, err = evalOne(m, c, pi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("reward = %v, want 2", got)
	}
}

func TestEvalCTMCTransReward(t *testing.T) {
	c, pi := workRest(t)
	m := Measure{Name: "rate_finish", Clauses: []Clause{
		{Instance: "W", Action: "finish", Kind: TransReward, Value: 1},
	}}
	got, err := evalOne(m, c, pi)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle rate: P(work)*2 = 2/3.
	if math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("finish rate = %v, want 2/3", got)
	}
}

func TestEvalCTMCUnknownPredicate(t *testing.T) {
	c, pi := workRest(t)
	m := Measure{Name: "bad", Clauses: []Clause{
		{Instance: "W", Action: "nope", Kind: StateReward, Value: 1},
	}}
	if _, err := evalOne(m, c, pi); err == nil {
		t.Fatal("unknown predicate should error")
	}
}

func TestRewardKindString(t *testing.T) {
	if StateReward.String() != "STATE_REWARD" || TransReward.String() != "TRANS_REWARD" {
		t.Error("RewardKind.String wrong")
	}
	if RewardKind(0).String() != "unknown" {
		t.Error("zero kind should be unknown")
	}
}

func TestParseRatio(t *testing.T) {
	ms, err := Parse(`
MEASURE energy IS ENABLED(S.mon) -> STATE_REWARD(2);
MEASURE throughput IS ENABLED(C.done) -> TRANS_REWARD(1);
MEASURE energy_per_request IS RATIO(energy, throughput)
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(ms) != 3 {
		t.Fatalf("measures = %d", len(ms))
	}
	r := ms[2]
	if !r.Derived || r.Num != "energy" || r.Den != "throughput" {
		t.Errorf("ratio parsed wrong: %+v", r)
	}
	if len(StatePreds(ms)) != 1 {
		t.Errorf("ratio measures must not contribute predicates")
	}
}

func TestParseRatioErrors(t *testing.T) {
	if _, err := Parse("MEASURE x IS RATIO(a)"); err == nil {
		t.Error("one-operand RATIO should fail")
	}
}

func TestEvalAllWithRatio(t *testing.T) {
	c, pi := workRest(t)
	ms := []Measure{
		{Name: "p_work", Clauses: []Clause{
			{Instance: "W", Action: "mon_work", Kind: StateReward, Value: 1},
		}},
		{Name: "finish_rate", Clauses: []Clause{
			{Instance: "W", Action: "finish", Kind: TransReward, Value: 1},
		}},
		{Name: "work_per_finish", Derived: true, Num: "p_work", Den: "finish_rate"},
	}
	cm, err := Compile(ms, c)
	if err != nil {
		t.Fatal(err)
	}
	vals := cm.Eval(c, pi, nil)
	// P(work)=1/3, finish rate=2/3 → ratio 1/2.
	if math.Abs(vals["work_per_finish"]-0.5) > 1e-9 {
		t.Errorf("ratio = %v, want 0.5", vals["work_per_finish"])
	}
	// Missing operand.
	bad := []Measure{{Name: "r", Derived: true, Num: "nope", Den: "p_work"}}
	if _, err := Compile(append(ms[:1], bad...), c); err == nil {
		t.Error("missing operand should fail")
	}
}

func TestDeriveIntervals(t *testing.T) {
	ms := []Measure{
		{Name: "num"}, {Name: "den"},
		{Name: "r", Derived: true, Num: "num", Den: "den"},
	}
	base := map[string]stats.Interval{
		"num": {Mean: 6, HalfWidth: 0.6, Level: 0.9, N: 30},
		"den": {Mean: 3, HalfWidth: 0.3, Level: 0.9, N: 30},
	}
	got, err := DeriveIntervals(ms, base)
	if err != nil {
		t.Fatal(err)
	}
	ci := got["r"]
	if math.Abs(ci.Mean-2) > 1e-12 {
		t.Errorf("ratio mean = %v, want 2", ci.Mean)
	}
	// Relative half-widths: 0.1 + 0.1 = 0.2 → half-width 0.4.
	if math.Abs(ci.HalfWidth-0.4) > 1e-12 {
		t.Errorf("ratio half-width = %v, want 0.4", ci.HalfWidth)
	}
	// Zero denominator yields a zero interval instead of Inf.
	base["den"] = stats.Interval{Mean: 0}
	got, err = DeriveIntervals(ms, base)
	if err != nil || got["r"].Mean != 0 {
		t.Errorf("zero denominator: %v %v", got["r"], err)
	}
	// Missing operand errors.
	if _, err := DeriveIntervals(ms, map[string]stats.Interval{"num": {}}); err == nil {
		t.Error("missing operand should fail")
	}
}
