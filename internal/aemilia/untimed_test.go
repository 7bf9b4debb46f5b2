package aemilia

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/rates"
)

// TestUntimedRule pins the erasure rule on a small description: every
// annotation under prefixes, choices and guards becomes untimed, slotted
// exponentials included, except a passive annotation on an output
// interaction, which keeps its weight.
func TestUntimedRule(t *testing.T) {
	n := expr.Ref("n")
	buf := NewElemType("Buf_Type",
		[]string{"put"}, []string{"get", "status_empty"},
		NewBehavior("Buf", []Param{IntParam("n")}, Ch(
			When(expr.Bin(expr.OpLt, n, expr.Int(2)),
				Pre("put", rates.PassiveRate(),
					Pre("store", rates.Inf(2, 3), Invoke("Buf", expr.Bin(expr.OpAdd, n, expr.Int(1)))))),
			When(expr.Bin(expr.OpGt, n, expr.Int(0)),
				Pre("get", rates.ExpSlot(1, 0.5), Invoke("Buf", expr.Bin(expr.OpSub, n, expr.Int(1))))),
			When(expr.Bin(expr.OpEq, n, expr.Int(0)),
				Pre("status_empty", rates.PassiveWeight(2), Invoke("Buf", n))),
			Pre("leak", rates.PassiveRate(), Invoke("Buf", n)),
		)),
	)
	src := NewElemTypePorts("Src_Type", nil, []Port{AndPort("emit"), UniPort("monitor_src")},
		NewBehavior("Src", nil, Ch(
			Pre("produce", rates.ExpRate(4), Pre("emit", rates.Inf(1, 1), Invoke("Src"))),
			Pre("monitor_src", rates.PassiveRate(), Invoke("Src")),
			Pre("idle", rates.UntimedRate(), Halt()),
		)),
	)
	a := NewArchiType("Untimed_Rule", []*ElemType{buf, src},
		[]*Instance{NewInstance("B", "Buf_Type", expr.Int(0)), NewInstance("S", "Src_Type")},
		[]Attachment{Attach("S", "emit", "B", "put")})
	Untimed(a)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}

	got := map[string]rates.Rate{}
	var walk func(p Process)
	walk = func(p Process) {
		switch x := p.(type) {
		case *Prefix:
			got[x.Act.Name] = x.Act.Rate
			walk(x.Cont)
		case *Choice:
			for _, br := range x.Branches {
				walk(br)
			}
		case *Guarded:
			walk(x.Body)
		}
	}
	for _, et := range a.ElemTypes {
		for _, b := range et.Behaviors {
			walk(b.Body)
		}
	}
	want := map[string]rates.Rate{
		"put":          rates.UntimedRate(), // passive input
		"store":        rates.UntimedRate(), // immediate under a guard
		"get":          rates.UntimedRate(), // slotted exponential output
		"status_empty": rates.PassiveWeight(2),
		"leak":         rates.UntimedRate(), // passive internal action
		"produce":      rates.UntimedRate(),
		"emit":         rates.UntimedRate(), // immediate AND output
		"monitor_src":  rates.PassiveRate(),
		"idle":         rates.UntimedRate(),
	}
	if len(got) != len(want) {
		t.Fatalf("walked %d actions, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %v, want %v", name, got[name], w)
		}
	}
}
