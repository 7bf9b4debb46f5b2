package lts

import (
	"errors"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/expr"
	"repro/internal/rates"
)

// gridModel composes two independent producer/buffer/consumer triples, so
// the BFS frontier grows to O(capacity) states wide (the single-buffer
// models never exceed a frontier of two).
func gridModel(t *testing.T, capacity int64) *elab.Model {
	t.Helper()
	buf := aemilia.NewElemType("Buffer_Type",
		[]string{"put"}, []string{"get"},
		aemilia.NewBehavior("Buffer", []aemilia.Param{aemilia.IntParam("n")},
			aemilia.Ch(
				aemilia.When(expr.Bin(expr.OpLt, expr.Ref("n"), expr.Int(capacity)),
					aemilia.Pre("put", rates.PassiveRate(),
						aemilia.Invoke("Buffer", expr.Bin(expr.OpAdd, expr.Ref("n"), expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpGt, expr.Ref("n"), expr.Int(0)),
					aemilia.Pre("get", rates.PassiveRate(),
						aemilia.Invoke("Buffer", expr.Bin(expr.OpSub, expr.Ref("n"), expr.Int(1))))),
			)))
	prod := aemilia.NewElemType("Prod_Type", nil, []string{"put"},
		aemilia.NewBehavior("P", nil,
			aemilia.Pre("put", rates.ExpRate(2), aemilia.Invoke("P"))))
	cons := aemilia.NewElemType("Cons_Type", []string{"get"}, nil,
		aemilia.NewBehavior("C", nil,
			aemilia.Pre("get", rates.ExpRate(3), aemilia.Invoke("C"))))
	a := aemilia.NewArchiType("Grid",
		[]*aemilia.ElemType{buf, prod, cons},
		[]*aemilia.Instance{
			aemilia.NewInstance("B1", "Buffer_Type", expr.Int(0)),
			aemilia.NewInstance("P1", "Prod_Type"),
			aemilia.NewInstance("C1", "Cons_Type"),
			aemilia.NewInstance("B2", "Buffer_Type", expr.Int(0)),
			aemilia.NewInstance("P2", "Prod_Type"),
			aemilia.NewInstance("C2", "Cons_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("P1", "put", "B1", "put"),
			aemilia.Attach("B1", "get", "C1", "get"),
			aemilia.Attach("P2", "put", "B2", "put"),
			aemilia.Attach("B2", "get", "C2", "get"),
		})
	return mustModel(t, a)
}

type flatEdge struct {
	src, dst int
	label    string
	rate     rates.Rate
}

func flatten(l *LTS) []flatEdge {
	var out []flatEdge
	l.Edges(func(src, dst, label int, r rates.Rate) {
		out = append(out, flatEdge{src, dst, l.LabelName(label), r})
	})
	return out
}

// TestGenerateMaxStatesExactCount pins the intern-time MaxStates bound:
// generation aborts with exactly Limit states interned — never an extra
// frontier.
func TestGenerateMaxStatesExactCount(t *testing.T) {
	_, err := Generate(gridModel(t, 40), GenerateOptions{MaxStates: 100})
	var tms *TooManyStatesError
	if !errors.As(err, &tms) {
		t.Fatalf("want TooManyStatesError, got %v", err)
	}
	if tms.Limit != 100 || tms.States != 100 {
		t.Fatalf("Limit=%d States=%d, want 100/100", tms.Limit, tms.States)
	}
}

// TestGenerateMaxStatesExactFit checks the bound is not off by one: a
// state space of exactly MaxStates states generates successfully.
func TestGenerateMaxStatesExactFit(t *testing.T) {
	l, err := Generate(bufferModel(t, 5), GenerateOptions{MaxStates: 6})
	if err != nil {
		t.Fatalf("MaxStates == state count must succeed, got %v", err)
	}
	if l.NumStates != 6 {
		t.Fatalf("NumStates = %d, want 6", l.NumStates)
	}
}
