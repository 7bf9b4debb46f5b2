package aemilia

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/rates"
)

// TestValidateErrorText pins the whole message of every validation error
// that names an attachment, an element type or a behaviour, so that the
// way Validate builds that context cannot change what it reports.
func TestValidateErrorText(t *testing.T) {
	pre := func(name string, cont Process) Process { return Pre(name, rates.UntimedRate(), cont) }
	behavior := func(b *Behavior) func(a *ArchiType) {
		return func(a *ArchiType) {
			a.ElemTypes[1].Behaviors = append(a.ElemTypes[1].Behaviors, b)
		}
	}
	tests := []struct {
		name   string
		mutate func(a *ArchiType)
		want   string
	}{
		{"unknown-from", func(a *ArchiType) { a.Attachments[0] = Attach("Z", "ping", "B", "ping") },
			`aemilia: attachment Z.ping -> B.ping: unknown instance "Z"`},
		{"unknown-to", func(a *ArchiType) { a.Attachments[0] = Attach("A", "ping", "Z", "ping") },
			`aemilia: attachment A.ping -> Z.ping: unknown instance "Z"`},
		{"self", func(a *ArchiType) { a.Attachments[0] = Attach("A", "ping", "A", "ack") },
			"aemilia: attachment A.ping -> A.ack: an instance cannot be attached to itself"},
		{"not-output", func(a *ArchiType) { a.Attachments[0] = Attach("A", "ack", "B", "ping") },
			`aemilia: attachment A.ack -> B.ping: "ack" is not an output interaction of Sender_Type`},
		{"not-input", func(a *ArchiType) { a.Attachments[0] = Attach("A", "ping", "B", "ack") },
			`aemilia: attachment A.ping -> B.ack: "ack" is not an input interaction of Receiver_Type`},
		{"and-input", func(a *ArchiType) {
			a.ElemTypes[1].InPorts = []Port{AndPort("ping")}
			a.ElemTypes[1].OutPorts = []Port{UniPort("ack")}
		}, "aemilia: attachment A.ping -> B.ping: AND multiplicity is only supported on output interactions"},
		{"uni-output-twice", func(a *ArchiType) {
			a.ElemTypes = append(a.ElemTypes, NewElemType("X", []string{"ping"}, nil,
				NewBehavior("XB", nil, pre("ping", Invoke("XB")))))
			a.Instances = append(a.Instances, NewInstance("X1", "X"))
			a.Attachments = append(a.Attachments, Attach("A", "ping", "X1", "ping"))
		}, "aemilia: attachment A.ping -> X1.ping: output A.ping attached more than once (UNI)"},
		{"uni-input-twice", func(a *ArchiType) {
			a.Instances = append(a.Instances, NewInstance("A2", "Sender_Type"))
			a.Attachments = append(a.Attachments, Attach("A2", "ping", "B", "ping"))
		}, "aemilia: attachment A2.ping -> B.ping: input B.ping attached more than once (UNI)"},
		{"no-behaviour", func(a *ArchiType) { a.ElemTypes[1].Behaviors = nil },
			"aemilia: element type Receiver_Type: no behaviour equations"},
		{"empty-behaviour-name", behavior(NewBehavior("", nil, pre("x", Halt()))),
			"aemilia: element type Receiver_Type: behaviour with empty name"},
		{"duplicate-behaviour", behavior(NewBehavior("Recv", nil, pre("x", Halt()))),
			`aemilia: element type Receiver_Type: duplicate behaviour "Recv"`},
		{"empty-parameter", behavior(NewBehavior("P", []Param{IntParam("")}, pre("x", Halt()))),
			"aemilia: element type Receiver_Type, behaviour P: parameter with empty name"},
		{"duplicate-parameter", behavior(NewBehavior("P", []Param{IntParam("n"), BoolParam("n")}, pre("x", Halt()))),
			`aemilia: element type Receiver_Type, behaviour P: duplicate parameter "n"`},
		{"bad-parameter-type", behavior(NewBehavior("P", []Param{{Name: "n"}}, pre("x", Halt()))),
			`aemilia: element type Receiver_Type, behaviour P: parameter "n" has invalid type`},
		{"empty-interaction", func(a *ArchiType) { a.ElemTypes[1].Inputs = []string{""} },
			"aemilia: element type Receiver_Type: interaction with empty name"},
		{"interaction-twice", func(a *ArchiType) { a.ElemTypes[1].Inputs = []string{"ping", "ping"} },
			`aemilia: element type Receiver_Type: interaction "ping" declared twice`},
		{"interaction-both", func(a *ArchiType) { a.ElemTypes[1].Outputs = []string{"ack", "ping"} },
			`aemilia: element type Receiver_Type: interaction "ping" declared both input and output`},
		{"nil-body", behavior(NewBehavior("P", nil, nil)),
			"aemilia: element type Receiver_Type, behaviour P: nil body"},
		{"bare-invocation", behavior(NewBehavior("P", nil, Invoke("Recv"))),
			"aemilia: element type Receiver_Type, behaviour P: body must be action-guarded, found bare invocation"},
		{"nil-continuation", behavior(NewBehavior("P", nil, pre("x", nil))),
			`aemilia: element type Receiver_Type, behaviour P: action "x" has nil continuation`},
		{"empty-action", behavior(NewBehavior("P", nil, pre("", Halt()))),
			"aemilia: element type Receiver_Type, behaviour P: action with empty name"},
		{"bad-rate", behavior(NewBehavior("P", nil, Pre("x", rates.ExpRate(0), Halt()))),
			`aemilia: element type Receiver_Type, behaviour P: action "x": rates: exponential rate must be positive, got 0`},
		{"short-choice", behavior(NewBehavior("P", nil, Ch(pre("x", Halt())))),
			"aemilia: element type Receiver_Type, behaviour P: choice needs at least two branches"},
		{"choice-branch", behavior(NewBehavior("P", nil, Ch(pre("x", Halt()), Halt()))),
			"aemilia: element type Receiver_Type, behaviour P: choice branch must be an action prefix or a guarded prefix, found *aemilia.Stop"},
		{"nil-guard", behavior(NewBehavior("P", nil, Ch(When(nil, pre("x", Halt())), pre("y", Halt())))),
			"aemilia: element type Receiver_Type, behaviour P: guard with nil condition"},
		{"guard-error", behavior(NewBehavior("P", nil, Ch(When(expr.Ref("m"), pre("x", Halt())), pre("y", Halt())))),
			`aemilia: element type Receiver_Type, behaviour P: guard: expr: undefined variable "m"`},
		{"non-boolean-guard", behavior(NewBehavior("P", []Param{IntParam("n")},
			Ch(When(expr.Ref("n"), pre("x", Halt())), pre("y", Halt())))),
			"aemilia: element type Receiver_Type, behaviour P: guard must be boolean, got integer"},
		{"guarded-body", behavior(NewBehavior("P", nil, Ch(When(expr.Bool(true), Halt()), pre("y", Halt())))),
			"aemilia: element type Receiver_Type, behaviour P: guarded body must be action-guarded, found *aemilia.Stop"},
		{"unknown-behaviour", behavior(NewBehavior("P", nil, pre("x", Invoke("Q")))),
			`aemilia: element type Receiver_Type, behaviour P: invocation of unknown behaviour "Q"`},
		{"invocation-arity", behavior(NewBehavior("P", nil, pre("x", Invoke("Recv", expr.Int(1))))),
			"aemilia: element type Receiver_Type, behaviour P: invocation of Recv: expects 0 argument(s), got 1"},
		{"invocation-argument", behavior(NewBehavior("P", []Param{IntParam("n")}, pre("x", Invoke("P", expr.Ref("m"))))),
			`aemilia: element type Receiver_Type, behaviour P: invocation of P, argument 1: expr: undefined variable "m"`},
		{"invocation-type", func(a *ArchiType) {
			a.ElemTypes[1].Behaviors = append(a.ElemTypes[1].Behaviors,
				NewBehavior("P", []Param{IntParam("n"), BoolParam("f")}, pre("x", Invoke("P", expr.Int(0), expr.Bool(true)))),
				NewBehavior("Q", nil, pre("x", Invoke("P", expr.Int(0), expr.Int(1)))))
		}, "aemilia: element type Receiver_Type, behaviour Q: invocation of P, argument 2: got integer, want boolean"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := pingPong()
			tt.mutate(a)
			err := a.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if got := err.Error(); got != tt.want {
				t.Errorf("error = %q, want %q", got, tt.want)
			}
		})
	}
}
