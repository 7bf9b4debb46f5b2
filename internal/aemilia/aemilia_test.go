package aemilia

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/rates"
)

// pingPong returns a minimal two-element description used across tests.
func pingPong() *ArchiType {
	sender := NewElemType("Sender_Type",
		[]string{"ack"}, []string{"ping"},
		NewBehavior("Send", nil,
			Pre("ping", rates.UntimedRate(),
				Pre("ack", rates.UntimedRate(), Invoke("Send")))),
	)
	receiver := NewElemType("Receiver_Type",
		[]string{"ping"}, []string{"ack"},
		NewBehavior("Recv", nil,
			Pre("ping", rates.UntimedRate(),
				Pre("think", rates.UntimedRate(),
					Pre("ack", rates.UntimedRate(), Invoke("Recv"))))),
	)
	return NewArchiType("PingPong",
		[]*ElemType{sender, receiver},
		[]*Instance{NewInstance("A", "Sender_Type"), NewInstance("B", "Receiver_Type")},
		[]Attachment{
			Attach("A", "ping", "B", "ping"),
			Attach("B", "ack", "A", "ack"),
		},
	)
}

// counter returns a description with data parameters and guards.
func counter(capacity int64) *ArchiType {
	buf := NewElemType("Buffer_Type",
		[]string{"put"}, []string{"get"},
		NewBehavior("Buffer", []Param{IntParam("n")},
			Ch(
				When(expr.Bin(expr.OpLt, expr.Ref("n"), expr.Int(capacity)),
					Pre("put", rates.UntimedRate(),
						Invoke("Buffer", expr.Bin(expr.OpAdd, expr.Ref("n"), expr.Int(1))))),
				When(expr.Bin(expr.OpGt, expr.Ref("n"), expr.Int(0)),
					Pre("get", rates.UntimedRate(),
						Invoke("Buffer", expr.Bin(expr.OpSub, expr.Ref("n"), expr.Int(1))))),
			)),
	)
	prod := NewElemType("Prod_Type", nil, []string{"put"},
		NewBehavior("P", nil, Pre("put", rates.UntimedRate(), Invoke("P"))))
	cons := NewElemType("Cons_Type", []string{"get"}, nil,
		NewBehavior("C", nil, Pre("get", rates.UntimedRate(), Invoke("C"))))
	return NewArchiType("Counter",
		[]*ElemType{buf, prod, cons},
		[]*Instance{
			NewInstance("B", "Buffer_Type", expr.Int(0)),
			NewInstance("P", "Prod_Type"),
			NewInstance("C", "Cons_Type"),
		},
		[]Attachment{
			Attach("P", "put", "B", "put"),
			Attach("B", "get", "C", "get"),
		},
	)
}

func TestValidateOK(t *testing.T) {
	for _, a := range []*ArchiType{pingPong(), counter(4)} {
		if err := a.Validate(); err != nil {
			t.Fatalf("Validate(%s): %v", a.Name, err)
		}
		if !a.Validated() {
			t.Errorf("%s: Validated() = false after successful Validate", a.Name)
		}
		if a.NodeCount() == 0 {
			t.Errorf("%s: no nodes numbered", a.Name)
		}
	}
}

func TestValidateResolvesLookups(t *testing.T) {
	a := pingPong()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	et, ok := a.ElemType("Sender_Type")
	if !ok || et.Name != "Sender_Type" {
		t.Fatalf("ElemType lookup failed")
	}
	in, ok := a.Instance("A")
	if !ok || in.Type() != et {
		t.Fatalf("Instance lookup failed")
	}
	b, ok := et.Behavior("Send")
	if !ok || b.Name != "Send" {
		t.Fatalf("Behavior lookup failed")
	}
	if et.Initial() != b {
		t.Errorf("Initial() should be the first behaviour")
	}
	_, isOut := et.OutputPort("ping")
	_, isIn := et.InputPort("ping")
	if !isOut || isIn {
		t.Errorf("interaction classification wrong for ping")
	}
}

func TestValidateNodeIDsUnique(t *testing.T) {
	a := counter(2)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	var walk func(p Process)
	walk = func(p Process) {
		if seen[p.ID()] {
			t.Fatalf("duplicate node id %d", p.ID())
		}
		seen[p.ID()] = true
		switch x := p.(type) {
		case *Prefix:
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
	if len(seen) != a.NodeCount() {
		t.Errorf("numbered %d nodes, NodeCount = %d", len(seen), a.NodeCount())
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(a *ArchiType)
		want   string
	}{
		{"dup-elem", func(a *ArchiType) {
			a.ElemTypes = append(a.ElemTypes, a.ElemTypes[0])
		}, "duplicate element type"},
		{"dup-inst", func(a *ArchiType) {
			a.Instances = append(a.Instances, NewInstance("A", "Sender_Type"))
		}, "duplicate instance"},
		{"unknown-type", func(a *ArchiType) {
			a.Instances[0].TypeName = "Nope"
		}, "unknown element type"},
		{"self-attach", func(a *ArchiType) {
			a.Attachments[0] = Attach("A", "ping", "A", "ack")
		}, "cannot be attached to itself"},
		{"not-output", func(a *ArchiType) {
			a.Attachments[0] = Attach("A", "ack", "B", "ping")
		}, "not an output interaction"},
		{"not-input", func(a *ArchiType) {
			a.Attachments[0] = Attach("A", "ping", "B", "ack")
		}, "not an input interaction"},
		{"double-attach", func(a *ArchiType) {
			a.ElemTypes = append(a.ElemTypes, NewElemType("X", []string{"ping"}, nil,
				NewBehavior("XB", nil, Pre("ping", rates.UntimedRate(), Invoke("XB")))))
			a.Instances = append(a.Instances, NewInstance("X1", "X"))
			a.Attachments = append(a.Attachments, Attach("A", "ping", "X1", "ping"))
		}, "attached more than once"},
		{"bad-arity", func(a *ArchiType) {
			a.Instances[0].Args = []expr.Expr{expr.Int(1)}
		}, "expects 0 argument"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := pingPong()
			tt.mutate(a)
			err := a.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("want ValidationError, got %T: %v", err, err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestValidateBehaviorErrors(t *testing.T) {
	mk := func(b *Behavior) *ArchiType {
		et := NewElemType("T", nil, nil, b)
		return NewArchiType("A", []*ElemType{et}, []*Instance{NewInstance("I", "T")}, nil)
	}
	tests := []struct {
		name string
		b    *Behavior
		want string
	}{
		{"bare-call", NewBehavior("B", nil, Invoke("B")), "bare invocation"},
		{"unknown-call", NewBehavior("B", nil,
			Pre("a", rates.UntimedRate(), Invoke("Nope"))), "unknown behaviour"},
		{"call-arity", NewBehavior("B", []Param{IntParam("n")},
			Pre("a", rates.UntimedRate(), Invoke("B"))), "expects 1 argument"},
		{"call-type", NewBehavior("B", []Param{IntParam("n")},
			Pre("a", rates.UntimedRate(), Invoke("B", expr.Bool(true)))), "got boolean, want integer"},
		{"guard-type", NewBehavior("B", nil,
			Ch(
				When(expr.Int(1), Pre("a", rates.UntimedRate(), Invoke("B"))),
				Pre("b", rates.UntimedRate(), Invoke("B")),
			)), "guard must be boolean"},
		{"single-choice", NewBehavior("B", nil,
			&Choice{Branches: []Process{Pre("a", rates.UntimedRate(), Invoke("B"))}}),
			"at least two branches"},
		{"choice-branch-call", NewBehavior("B", nil,
			&Choice{Branches: []Process{
				Pre("a", rates.UntimedRate(), Invoke("B")),
				Invoke("B"),
			}}), "choice branch must be"},
		{"bad-rate", NewBehavior("B", nil,
			Pre("a", rates.ExpRate(-1), Invoke("B"))), "must be positive"},
		{"guard-undefined-var", NewBehavior("B", nil,
			Ch(
				When(expr.Ref("zzz"), Pre("a", rates.UntimedRate(), Invoke("B"))),
				Pre("b", rates.UntimedRate(), Invoke("B")),
			)), "undefined variable"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := mk(tt.b).Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestFormatContainsSections(t *testing.T) {
	a := counter(4)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	text := Format(a)
	for _, want := range []string{
		"ARCHI_TYPE Counter(void)",
		"ELEM_TYPE Buffer_Type(void)",
		"BEHAVIOR",
		"cond((n < 4)) -> <put, _> . Buffer((n + 1))",
		"INPUT_INTERACTIONS UNI put",
		"OUTPUT_INTERACTIONS UNI get",
		"ARCHI_ELEM_INSTANCES",
		"B : Buffer_Type(0);",
		"FROM P.put TO B.put;",
		"END",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Format output missing %q\n%s", want, text)
		}
	}
}

func TestFormatStop(t *testing.T) {
	et := NewElemType("T", nil, nil,
		NewBehavior("B", nil, Pre("a", rates.ExpRate(2), Halt())))
	a := NewArchiType("A", []*ElemType{et}, []*Instance{NewInstance("I", "T")}, nil)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	text := Format(a)
	if !strings.Contains(text, "<a, exp(2)> . stop") {
		t.Errorf("Format output missing stop prefix:\n%s", text)
	}
}
