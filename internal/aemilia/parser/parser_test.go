package parser

import (
	"strings"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/expr"
	"repro/internal/rates"
)

// paperRPC is the simplified rpc specification from Sect. 2.3 of the
// paper, verbatim up to whitespace.
const paperRPC = `
ARCHI_TYPE RPC_DPM_Untimed(void)

ARCHI_ELEM_TYPES

  ELEM_TYPE Server_Type(void)
    BEHAVIOR
      Idle_Server(void; void) =
        choice {
          <receive_rpc_packet, _> . Busy_Server(),
          <receive_shutdown, _> . Sleeping_Server()
        };
      Busy_Server(void; void) =
        choice {
          <prepare_result_packet, _> . Responding_Server(),
          <receive_shutdown, _> . Sleeping_Server()
        };
      Responding_Server(void; void) =
        choice {
          <send_result_packet, _> . Idle_Server(),
          <receive_shutdown, _> . Sleeping_Server()
        };
      Sleeping_Server(void; void) =
        <receive_rpc_packet, _> . Awaking_Server();
      Awaking_Server(void; void) =
        <awake, _> . Busy_Server()
    INPUT_INTERACTIONS UNI receive_rpc_packet; receive_shutdown
    OUTPUT_INTERACTIONS UNI send_result_packet

  ELEM_TYPE Radio_Channel_Type(void)
    BEHAVIOR
      Radio_Channel(void; void) =
        <get_packet, _> . <propagate_packet, _> . <deliver_packet, _> . Radio_Channel()
    INPUT_INTERACTIONS UNI get_packet
    OUTPUT_INTERACTIONS UNI deliver_packet

  ELEM_TYPE Sync_Client_Type(void)
    BEHAVIOR
      Sync_Client(void; void) =
        <send_rpc_packet, _> . <receive_result_packet, _> .
          <process_result_packet, _> . Sync_Client()
    INPUT_INTERACTIONS UNI receive_result_packet
    OUTPUT_INTERACTIONS UNI send_rpc_packet

  ELEM_TYPE DPM_Type(void)
    BEHAVIOR
      DPM_Beh(void; void) =
        <send_shutdown, _> . DPM_Beh()
    INPUT_INTERACTIONS void
    OUTPUT_INTERACTIONS UNI send_shutdown

ARCHI_TOPOLOGY

  ARCHI_ELEM_INSTANCES
    S   : Server_Type();
    RCS : Radio_Channel_Type();
    RSC : Radio_Channel_Type();
    C   : Sync_Client_Type();
    DPM : DPM_Type()

  ARCHI_ATTACHMENTS
    FROM C.send_rpc_packet TO RCS.get_packet;
    FROM RCS.deliver_packet TO S.receive_rpc_packet;
    FROM S.send_result_packet TO RSC.get_packet;
    FROM RSC.deliver_packet TO C.receive_result_packet;
    FROM DPM.send_shutdown TO S.receive_shutdown

END
`

func TestParsePaperRPC(t *testing.T) {
	a, err := Parse(paperRPC)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if a.Name != "RPC_DPM_Untimed" {
		t.Errorf("Name = %q", a.Name)
	}
	if len(a.ElemTypes) != 4 {
		t.Fatalf("ElemTypes = %d, want 4", len(a.ElemTypes))
	}
	if len(a.Instances) != 5 {
		t.Fatalf("Instances = %d, want 5", len(a.Instances))
	}
	if len(a.Attachments) != 5 {
		t.Fatalf("Attachments = %d, want 5", len(a.Attachments))
	}
	server, ok := elemType(a, "Server_Type")
	if !ok {
		t.Fatal("Server_Type missing")
	}
	if len(server.Behaviors) != 5 {
		t.Errorf("Server behaviours = %d, want 5", len(server.Behaviors))
	}
	_, in := server.InputPort("receive_shutdown")
	_, out := server.OutputPort("send_result_packet")
	if !in || !out {
		t.Error("server interactions wrong")
	}
	// The parsed model must elaborate and run.
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatalf("Elaborate: %v", err)
	}
	c := m.Compile(nil)
	ts, _, err := c.Successors(c.Initial(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatal("no initial transitions")
	}
	var sawSend, sawShutdown bool
	var labels []string
	for _, tr := range ts {
		labels = append(labels, c.Label(tr.Label))
		switch c.Label(tr.Label) {
		case "C.send_rpc_packet#RCS.get_packet":
			sawSend = true
		case "DPM.send_shutdown#S.receive_shutdown":
			sawShutdown = true
		}
	}
	if !sawSend || !sawShutdown {
		t.Errorf("initial transitions missing expected syncs: %v", labels)
	}
}

const paramSpec = `
ARCHI_TYPE Buffered(void)
ARCHI_ELEM_TYPES
  ELEM_TYPE Buffer_Type(void)
    BEHAVIOR
      Buffer(integer n; void) =
        choice {
          cond(n < 3) -> <put, passive> . Buffer(n + 1),
          cond(n > 0) -> <get, passive(2)> . Buffer(n - 1),
          cond(n = 3) -> <overflow_watch, passive> . Buffer(n)
        }
    INPUT_INTERACTIONS UNI put
    OUTPUT_INTERACTIONS UNI get
  ELEM_TYPE Prod_Type(void)
    BEHAVIOR
      P(void; void) = <put, exp(1.5)> . P()
    INPUT_INTERACTIONS void
    OUTPUT_INTERACTIONS UNI put
  ELEM_TYPE Cons_Type(void)
    BEHAVIOR
      C(void; void) = <get, inf(1, 2)> . <render, exp(0.5)> . C()
    INPUT_INTERACTIONS UNI get
    OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    B : Buffer_Type(0);
    P : Prod_Type();
    C : Cons_Type()
  ARCHI_ATTACHMENTS
    FROM P.put TO B.put;
    FROM B.get TO C.get
END
`

func TestParseParamsGuardsRates(t *testing.T) {
	a, err := Parse(paramSpec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	buf, _ := elemType(a, "Buffer_Type")
	b := buf.Behaviors[0]
	if len(b.Params) != 1 || b.Params[0].Name != "n" || b.Params[0].Type != expr.TypeInt {
		t.Fatalf("params = %+v", b.Params)
	}
	ch, ok := b.Body.(*aemilia.Choice)
	if !ok || len(ch.Branches) != 3 {
		t.Fatalf("body not a 3-way choice: %T", b.Body)
	}
	g, ok := ch.Branches[1].(*aemilia.Guarded)
	if !ok {
		t.Fatalf("branch 1 not guarded")
	}
	pre, ok := g.Body.(*aemilia.Prefix)
	if !ok || pre.Act.Rate.Kind != rates.Passive || pre.Act.Rate.Weight != 2 {
		t.Fatalf("get rate = %v", pre.Act.Rate)
	}
	prod, _ := elemType(a, "Prod_Type")
	pp := prod.Behaviors[0].Body.(*aemilia.Prefix)
	if pp.Act.Rate.Kind != rates.Exp || pp.Act.Rate.Lambda != 1.5 {
		t.Fatalf("put rate = %v", pp.Act.Rate)
	}
	cons, _ := elemType(a, "Cons_Type")
	cp := cons.Behaviors[0].Body.(*aemilia.Prefix)
	if cp.Act.Rate.Kind != rates.Immediate || cp.Act.Rate.Priority != 1 || cp.Act.Rate.Weight != 2 {
		t.Fatalf("get rate = %v", cp.Act.Rate)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, src := range []string{paperRPC, paramSpec} {
		a1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse original: %v", err)
		}
		text := aemilia.Format(a1)
		a2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse of Format output failed: %v\n%s", err, text)
		}
		if aemilia.Format(a2) != text {
			t.Errorf("Format not a fixed point of Parse∘Format")
		}
	}
}

func TestParseComments(t *testing.T) {
	src := strings.Replace(paramSpec, "ARCHI_ELEM_TYPES",
		"// a line comment\nARCHI_ELEM_TYPES // trailing", 1)
	if _, err := Parse(src); err != nil {
		t.Fatalf("comments broke parsing: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"empty", "", "expected \"ARCHI_TYPE\""},
		{"no-void", "ARCHI_TYPE X(int)", `expected "void"`},
		{"bad-rate", strings.Replace(paramSpec, "exp(1.5)", "gauss(1)", 1), "expected rate"},
		{"bad-char", strings.Replace(paramSpec, "exp(1.5)", "exp(@)", 1), "unexpected character"},
		{"non-ascii", strings.Replace(paramSpec, "exp(1.5)", "exp(é)", 1), `unexpected character "é"`},
		{"non-ascii-ident", "ARCHI_TYPE café(void)", `aemilia: 1:15: unexpected character "é"`},
		{"invalid-utf8", "ARCHI_TYPE caf\xe9(void)", `aemilia: 1:15: unexpected character "\xe9"`},
		{"missing-dot", strings.Replace(paramSpec, "> . P()", "> P()", 1), `expected "."`},
		{"float-arg", strings.Replace(paramSpec, "Buffer_Type(0)", "Buffer_Type(0.5)", 1), "expected integer literal"},
		{"bad-param-type", strings.Replace(paramSpec, "integer n", "real n", 1), "expected parameter type"},
		{"unclosed-choice", strings.Replace(paramSpec, "cond(n = 3) -> <overflow_watch, passive> . Buffer(n)\n        }", "cond(n = 3) -> <overflow_watch, passive> . Buffer(n)\n", 1), "expected"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestParseSemanticErrorSurfaces(t *testing.T) {
	// Parses fine but fails validation (unknown behaviour invocation).
	src := strings.Replace(paramSpec, "P()", "Q()", 1)
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "unknown behaviour") {
		t.Fatalf("want validation error, got %v", err)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	src := strings.Replace(paramSpec, "cond(n < 3)", "cond(n + 1 * 2 < 3 and not(n = 2) or false)", 1)
	a, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	buf, _ := elemType(a, "Buffer_Type")
	g := buf.Behaviors[0].Body.(*aemilia.Choice).Branches[0].(*aemilia.Guarded)
	got := g.Cond.String()
	want := "((((n + (1 * 2)) < 3) and not((n = 2))) or false)"
	if got != want {
		t.Errorf("precedence: got %s, want %s", got, want)
	}
}

func TestParseNegativeLiteral(t *testing.T) {
	src := strings.Replace(paramSpec, "Buffer_Type(0)", "Buffer_Type(-1 + 1)", 1)
	a, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compile(nil)
	if _, _, err := c.Successors(c.Initial(), nil, nil); err != nil {
		t.Fatal(err)
	}
}

const multiPortSpec = `
ARCHI_TYPE Multicast(void)
ARCHI_ELEM_TYPES
  ELEM_TYPE Pub_Type(void)
    BEHAVIOR
      P(void; void) = <prepare, exp(1)> . <publish, inf(1, 1)> . P()
    INPUT_INTERACTIONS void
    OUTPUT_INTERACTIONS AND publish
  ELEM_TYPE Sub_Type(void)
    BEHAVIOR
      S(void; void) = <hear, passive> . <digest, exp(2)> . S()
    INPUT_INTERACTIONS UNI hear
    OUTPUT_INTERACTIONS void
  ELEM_TYPE Srv_Type(void)
    BEHAVIOR
      V(void; void) = <serve, exp(3)> . V()
    INPUT_INTERACTIONS void
    OUTPUT_INTERACTIONS OR serve
  ELEM_TYPE Cli_Type(void)
    BEHAVIOR
      C(void; void) = <obtain, passive> . C()
    INPUT_INTERACTIONS UNI obtain
    OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    P : Pub_Type();
    A : Sub_Type();
    B : Sub_Type();
    V : Srv_Type();
    C1 : Cli_Type();
    C2 : Cli_Type()
  ARCHI_ATTACHMENTS
    FROM P.publish TO A.hear;
    FROM P.publish TO B.hear;
    FROM V.serve TO C1.obtain;
    FROM V.serve TO C2.obtain
END
`

func TestParseMultiplicities(t *testing.T) {
	a, err := Parse(multiPortSpec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	pub, _ := elemType(a, "Pub_Type")
	port, ok := pub.OutputPort("publish")
	if !ok || port.Mult != aemilia.And {
		t.Errorf("publish port = %+v, want AND", port)
	}
	srv, _ := elemType(a, "Srv_Type")
	port, ok = srv.OutputPort("serve")
	if !ok || port.Mult != aemilia.Or {
		t.Errorf("serve port = %+v, want OR", port)
	}
	// The model elaborates and broadcasts.
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compile(nil)
	if _, _, err := c.Successors(c.Initial(), nil, nil); err != nil {
		t.Fatal(err)
	}
	// Round trip.
	text := aemilia.Format(a)
	if !strings.Contains(text, "OUTPUT_INTERACTIONS AND publish") {
		t.Errorf("Format lost the AND multiplicity:\n%s", text)
	}
	b, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if aemilia.Format(b) != text {
		t.Error("Format not a fixed point for multiplicities")
	}
}

func TestParseMixedMultiplicityGroups(t *testing.T) {
	src := strings.Replace(multiPortSpec,
		"INPUT_INTERACTIONS UNI hear",
		"INPUT_INTERACTIONS UNI hear OR extra", 1)
	src = strings.Replace(src,
		"S(void; void) = <hear, passive> . <digest, exp(2)> . S()",
		"S(void; void) = choice { <hear, passive> . <digest, exp(2)> . S(), <extra, passive> . S() }", 1)
	a, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sub, _ := elemType(a, "Sub_Type")
	if p, ok := sub.InputPort("extra"); !ok || p.Mult != aemilia.Or {
		t.Errorf("extra port = %+v, want OR", p)
	}
}

// elemType returns the element type of a with the given name.
func elemType(a *aemilia.ArchiType, name string) (*aemilia.ElemType, bool) {
	for _, et := range a.ElemTypes {
		if et.Name == name {
			return et, true
		}
	}
	return nil, false
}
