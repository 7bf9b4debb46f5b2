package lts

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/expr"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// edge is one transition of a test system in edge-list form.
type edge struct {
	src, dst, label, aux int
	rate                 rates.Rate
}

// build assembles the system over n states whose labels index syms from
// edges listed in any order: it sorts them stably by source, in place,
// and hands each state's edges to a RowBuilder row in list order.
func build(syms *statespace.Symbols, n, initial int, edges []edge) *LTS {
	slices.SortStableFunc(edges, func(a, b edge) int { return cmp.Compare(a.src, b.src) })
	rows := statespace.NewRowBuilder()
	for s := range n {
		for ; len(edges) > 0 && edges[0].src == s; edges = edges[1:] {
			e := &edges[0]
			rows.Add(int32(e.dst), int32(e.label), int32(e.aux), e.rate)
		}
		rows.EndRow()
	}
	return New(syms, initial, rows.CSR())
}

func mustModel(t *testing.T, a *aemilia.ArchiType) *elab.Model {
	t.Helper()
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatalf("Elaborate: %v", err)
	}
	return m
}

// workerModel: a worker loops work(internal) then report(output, blocked or
// attached), plus a supervisor that consumes reports.
func workerModel(t *testing.T) *elab.Model {
	worker := aemilia.NewElemType("Worker_Type", nil, []string{"report"},
		aemilia.NewBehavior("W", nil,
			aemilia.Pre("work", rates.UntimedRate(),
				aemilia.Pre("report", rates.UntimedRate(), aemilia.Invoke("W")))))
	sup := aemilia.NewElemType("Sup_Type", []string{"report"}, nil,
		aemilia.NewBehavior("S", nil,
			aemilia.Pre("report", rates.UntimedRate(), aemilia.Invoke("S"))))
	a := aemilia.NewArchiType("WS",
		[]*aemilia.ElemType{worker, sup},
		[]*aemilia.Instance{
			aemilia.NewInstance("W", "Worker_Type"),
			aemilia.NewInstance("S", "Sup_Type"),
		},
		[]aemilia.Attachment{aemilia.Attach("W", "report", "S", "report")})
	return mustModel(t, a)
}

func bufferModel(t *testing.T, capacity int64) *elab.Model {
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
	return mustModel(t, a)
}

func TestGenerateWorker(t *testing.T) {
	l, err := Generate(workerModel(t), GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates != 2 {
		t.Fatalf("NumStates = %d, want 2", l.NumStates)
	}
	if l.NumTransitions() != 2 {
		t.Fatalf("NumTransitions = %d, want 2", l.NumTransitions())
	}
	out0 := l.Out(0)
	if out0.Len() != 1 || l.LabelName(int(out0.Label[0])) != "W.work" {
		t.Errorf("Out(0) = %v", out0)
	}
	out1 := l.Out(1)
	if out1.Len() != 1 || l.LabelName(int(out1.Label[0])) != "W.report#S.report" {
		t.Errorf("Out(1) = %v", out1)
	}
	if len(l.Deadlocks()) != 0 {
		t.Errorf("unexpected deadlocks: %v", l.Deadlocks())
	}
}

func TestGenerateBufferSize(t *testing.T) {
	l, err := Generate(bufferModel(t, 5), GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Global state is determined by the buffer fill level: 0..5.
	if l.NumStates != 6 {
		t.Fatalf("NumStates = %d, want 6", l.NumStates)
	}
	// 5 puts + 5 gets.
	if l.NumTransitions() != 10 {
		t.Fatalf("NumTransitions = %d, want 10", l.NumTransitions())
	}
}

func TestGenerateMaxStates(t *testing.T) {
	_, err := Generate(bufferModel(t, 100), GenerateOptions{MaxStates: 10})
	var tms *TooManyStatesError
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("want TooManyStatesError, got %v", err)
	}
	if ok := errorsAs(err, &tms); !ok || tms.Limit != 10 {
		t.Fatalf("limit not propagated: %v", err)
	}
	if tms.States != 10 {
		t.Fatalf("States = %d, want exactly the limit (no overshoot)", tms.States)
	}
}

func errorsAs(err error, target any) bool {
	if e, ok := err.(*TooManyStatesError); ok {
		*(target.(**TooManyStatesError)) = e
		return true
	}
	return false
}

func TestPredicates(t *testing.T) {
	l, err := Generate(bufferModel(t, 2), GenerateOptions{
		Predicates: []StatePred{
			{Instance: "B", Action: "get"},
			{Instance: "B", Action: "put"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// State 0 is the empty buffer: get disabled, put enabled.
	if col, err := l.PredColumn("B.get"); err != nil || col[0] {
		t.Errorf("B.get at 0: column %v (%v), want false", col, err)
	}
	if col, err := l.PredColumn("B.put"); err != nil || !col[0] {
		t.Errorf("B.put at 0: column %v (%v), want true", col, err)
	}
	if _, err := l.PredColumn("B.nothing"); err == nil {
		t.Error("unknown predicate should error")
	}
}

func TestHide(t *testing.T) {
	l, err := Generate(workerModel(t), GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := Hide(l, LabelMatcherByNames("W.work"))
	var sawTau, sawReport bool
	h.Edges(func(src, dst, label int, _ rates.Rate) {
		switch h.LabelName(label) {
		case TauName:
			sawTau = true
		case "W.report#S.report":
			sawReport = true
		default:
			t.Errorf("unexpected label %q", h.LabelName(label))
		}
	})
	if !sawTau || !sawReport {
		t.Errorf("hide result: sawTau=%t sawReport=%t", sawTau, sawReport)
	}
	if h.NumStates != l.NumStates {
		t.Errorf("hide must preserve states")
	}
}

func TestRestrict(t *testing.T) {
	l, err := Generate(bufferModel(t, 3), GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Forbid gets: only states 0..3 reachable via puts, then deadlock at 3.
	r := Restrict(l, func(lbl string) bool { return strings.Contains(lbl, "get") })
	if r.NumStates != 4 {
		t.Fatalf("restricted NumStates = %d, want 4", r.NumStates)
	}
	if r.NumTransitions() != 3 {
		t.Fatalf("restricted NumTransitions = %d, want 3", r.NumTransitions())
	}
	if len(r.Deadlocks()) != 1 {
		t.Errorf("expected exactly one deadlock, got %v", r.Deadlocks())
	}
}

func TestRestrictKeepsPredicates(t *testing.T) {
	l, err := Generate(bufferModel(t, 3), GenerateOptions{
		Predicates: []StatePred{{Instance: "B", Action: "put"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := Restrict(l, func(lbl string) bool { return strings.Contains(lbl, "get") })
	if r.descFn == nil {
		t.Fatal("descriptions lost")
	}
	for s := 0; s < r.NumStates; s++ {
		if r.StateDesc(s) == "" {
			t.Fatalf("empty description for state %d", s)
		}
	}
	// The last reachable state is the full buffer, where put is disabled.
	full := r.NumStates - 1
	if col, err := r.PredColumn("B.put"); err != nil || len(col) != r.NumStates || col[full] {
		t.Errorf("B.put column %v (%v), want %d states and false at full", col, err, r.NumStates)
	}
}

func TestLabelMatcherByInstance(t *testing.T) {
	m := LabelMatcherByInstance("DPM")
	tests := []struct {
		label string
		want  bool
	}{
		{"DPM.send_shutdown", true},
		{"DPM.send_shutdown#S.receive_shutdown", true},
		{"S.notify_busy#DPM.receive_busy_notice", true},
		{"S.send#C.receive", false},
		{"C.process", false},
		{"XDPM.x", false},
		// AND broadcasts: every '#'-separated participant counts.
		{"A.o#DPM.i#C.j", true},
		{"A.o#B.i#DPM.j", true},
		{"A.o#B.i#XDPM.j", false},
	}
	for _, tt := range tests {
		if got := m(tt.label); got != tt.want {
			t.Errorf("match(%q) = %t, want %t", tt.label, got, tt.want)
		}
	}
}

func TestLabelInvolves(t *testing.T) {
	tests := []struct {
		label, instAction string
		want              bool
	}{
		{"A.o", "A.o", true},
		{"A.o#B.i", "A.o", true},
		{"A.o#B.i", "B.i", true},
		{"A.o#B.i#C.j", "A.o", true},
		{"A.o#B.i#C.j", "B.i", true},
		{"A.o#B.i#C.j", "C.j", true},
		{"A.o#B.i#C.j", "C.i", false},
		{"A.o#B.i#C.j", "B.i#C.j", false},
		{"A.o#B.ii", "B.i", false},
	}
	for _, tt := range tests {
		if got := LabelInvolves(tt.label, tt.instAction); got != tt.want {
			t.Errorf("LabelInvolves(%q, %q) = %t, want %t", tt.label, tt.instAction, got, tt.want)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	l, err := Generate(workerModel(t), GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteDOT(&sb, l, "worker"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "doublecircle", "W.work", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// TestWriteDOTQuotedLabel guards against double-escaping: a label that
// contains a double quote must render as \" in the DOT output, not \\\"
// (the old code pre-escaped quotes before handing the label to %q).
func TestWriteDOTQuotedLabel(t *testing.T) {
	syms := statespace.NewSymbols()
	l := build(syms, 2, 0, []edge{{src: 0, dst: 1, label: syms.Intern(`say "hi"`), rate: rates.UntimedRate()}})
	var sb strings.Builder
	if err := WriteDOT(&sb, l, "q"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `label="say \"hi\""`) {
		t.Errorf("quote not escaped exactly once:\n%s", out)
	}
	if strings.Contains(out, `\\"`) {
		t.Errorf("double-escaped quote in DOT output:\n%s", out)
	}
}

func TestLookupLabel(t *testing.T) {
	syms := statespace.NewSymbols()
	i := syms.Intern("a.b")
	l := build(syms, 1, 0, nil)
	if j, ok := l.LookupLabel("a.b"); !ok || j != i {
		t.Errorf("LookupLabel = (%d, %t), want (%d, true)", j, ok, i)
	}
	if _, ok := l.LookupLabel("missing"); ok {
		t.Error("missing label should not be found")
	}
}
