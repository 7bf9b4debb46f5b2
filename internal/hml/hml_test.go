package hml

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"repro/internal/lts"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// build constructs an LTS from (src, label, dst) triples listed in any
// order; "tau" is the invisible action. Labels are interned in list
// order, and a stable sort by source hands each state's triples to a
// RowBuilder row in list order.
func build(n, initial int, edges [][3]any) *lts.LTS {
	syms := statespace.NewSymbols()
	for _, e := range edges {
		syms.Intern(e[1].(string))
	}
	edges = slices.Clone(edges)
	slices.SortStableFunc(edges, func(a, b [3]any) int { return cmp.Compare(a[0].(int), b[0].(int)) })
	rows := statespace.NewRowBuilder()
	for s := range n {
		for ; len(edges) > 0 && edges[0][0].(int) == s; edges = edges[1:] {
			label, _ := syms.Lookup(edges[0][1].(string))
			rows.Add(int32(edges[0][2].(int)), int32(label), 0, rates.UntimedRate())
		}
		rows.EndRow()
	}
	return lts.New(syms, initial, rows.CSR())
}

func TestSatStrongDiamond(t *testing.T) {
	// 0 -a-> 1 -b-> 2
	l := build(3, 0, [][3]any{{0, "a", 1}, {1, "b", 2}})
	c := NewChecker(l)
	if !c.Sat(0, Diamond{Label: "a", F: True{}}) {
		t.Error("<a>T should hold at 0")
	}
	if c.Sat(0, Diamond{Label: "b", F: True{}}) {
		t.Error("<b>T should not hold at 0")
	}
	if !c.Sat(0, Diamond{Label: "a", F: Diamond{Label: "b", F: True{}}}) {
		t.Error("<a><b>T should hold at 0")
	}
	if c.Sat(0, Diamond{Label: "zzz", F: True{}}) {
		t.Error("unknown label should be unsatisfiable")
	}
}

func TestSatWeakDiamond(t *testing.T) {
	// 0 -tau-> 1 -a-> 2 -tau-> 3 -b-> 4
	l := build(5, 0, [][3]any{
		{0, "tau", 1}, {1, "a", 2}, {2, "tau", 3}, {3, "b", 4},
	})
	c := NewChecker(l)
	if !c.Sat(0, DiamondWeak{Label: "a", F: True{}}) {
		t.Error("<<a>>T should hold at 0 (through tau)")
	}
	if c.Sat(0, Diamond{Label: "a", F: True{}}) {
		t.Error("strong <a>T should not hold at 0")
	}
	// <<a>> <<b>> T: after a, reach 2, tau to 3, then b.
	if !c.Sat(0, DiamondWeak{Label: "a", F: DiamondWeak{Label: "b", F: True{}}}) {
		t.Error("<<a>><<b>>T should hold at 0")
	}
	// Weak tau diamond: reachable by tau* only.
	if !c.Sat(0, DiamondWeak{Label: "tau", F: DiamondWeak{Label: "a", F: True{}}}) {
		t.Error("<<tau>><<a>>T should hold at 0")
	}
	if !c.Sat(2, DiamondWeak{Label: "tau", F: DiamondWeak{Label: "b", F: True{}}}) {
		t.Error("<<tau>><<b>>T should hold at 2")
	}
}

func TestSatNegationAndConjunction(t *testing.T) {
	// 0 -a-> 1, 0 -b-> 2
	l := build(3, 0, [][3]any{{0, "a", 1}, {0, "b", 2}})
	c := NewChecker(l)
	f := And{Fs: []Formula{
		Diamond{Label: "a", F: True{}},
		Diamond{Label: "b", F: True{}},
		Not{F: Diamond{Label: "c", F: True{}}},
	}}
	if !c.Sat(0, f) {
		t.Error("conjunction should hold at 0")
	}
	if c.Sat(1, f) {
		t.Error("conjunction should fail at 1")
	}
	if !c.Sat(0, And{}) {
		t.Error("empty conjunction is TRUE")
	}
}

// rpcFormula is the distinguishing formula of the simplified rpc model's
// noninterference check (paper Sect. 3.1, rpcstudy -experiment sect3).
const rpcFormula = "EXISTS_WEAK_TRANS(LABEL(C.send_rpc_packet#RCS.get_packet); " +
	"REACHED_STATE_SAT(NOT(EXISTS_WEAK_TRANS(LABEL(RSC.deliver_packet#C.receive_result_packet); " +
	"REACHED_STATE_SAT(TRUE)))))"

func TestFormat(t *testing.T) {
	f := DiamondWeak{
		Label: "C.send_rpc_packet#RCS.get_packet",
		F: Not{F: DiamondWeak{
			Label: "RSC.deliver_packet#C.receive_result_packet",
			F:     True{},
		}},
	}
	if got := Format(f); got != rpcFormula {
		t.Errorf("Format:\n got %s\nwant %s", got, rpcFormula)
	}
}

func TestFormatVariants(t *testing.T) {
	if got := Format(True{}); got != "TRUE" {
		t.Errorf("TRUE = %q", got)
	}
	if got := Format(And{}); got != "TRUE" {
		t.Errorf("empty AND = %q", got)
	}
	if got := Format(And{Fs: []Formula{True{}}}); got != "TRUE" {
		t.Errorf("singleton AND = %q", got)
	}
	got := Format(And{Fs: []Formula{True{}, Not{F: True{}}}})
	if got != "AND(TRUE; NOT(TRUE))" {
		t.Errorf("AND = %q", got)
	}
	got = Format(Diamond{Label: "a", F: True{}})
	if !strings.HasPrefix(got, "EXISTS_TRANS(LABEL(a);") {
		t.Errorf("strong diamond = %q", got)
	}
}

func TestDepth(t *testing.T) {
	f := DiamondWeak{Label: "a", F: Not{F: DiamondWeak{Label: "b", F: True{}}}}
	if d := depth(f); d != 2 {
		t.Errorf("Depth = %d, want 2", d)
	}
	if d := depth(True{}); d != 0 {
		t.Errorf("depth(TRUE) = %d, want 0", d)
	}
	if d := depth(And{Fs: []Formula{Diamond{Label: "a", F: True{}}, True{}}}); d != 1 {
		t.Errorf("depth(AND) = %d, want 1", d)
	}
}

// roundTripFormulas are formulas whose Format text Parse reads back.
var roundTripFormulas = []Formula{
	True{},
	Not{F: True{}},
	And{Fs: []Formula{Diamond{Label: "a", F: True{}}, Not{F: True{}}}},
	Diamond{Label: "A.a#B.b", F: True{}},
	DiamondWeak{Label: "C.send_rpc_packet#RCS.get_packet",
		F: Not{F: DiamondWeak{Label: "RSC.deliver_packet#C.receive_result_packet", F: True{}}}},
	DiamondWeak{Label: "tau", F: And{Fs: []Formula{
		Diamond{Label: "x", F: True{}},
		DiamondWeak{Label: "y", F: Not{F: True{}}},
	}}},
}

func TestParseRoundTrip(t *testing.T) {
	for _, f := range roundTripFormulas {
		text := Format(f)
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if Format(got) != text {
			t.Errorf("round trip changed formula:\n in: %s\nout: %s", text, Format(got))
		}
	}
}

// spacedFormula spreads a formula over blanks, tabs and a newline.
const spacedFormula = ` EXISTS_WEAK_TRANS( LABEL( a#b ) ;
		REACHED_STATE_SAT( NOT( TRUE ) ) ) `

func TestParseWhitespaceTolerant(t *testing.T) {
	f, err := Parse(spacedFormula)
	if err != nil {
		t.Fatal(err)
	}
	dw, ok := f.(DiamondWeak)
	if !ok || dw.Label != "a#b" {
		t.Errorf("parsed %#v", f)
	}
}

// malformedFormulas are inputs Parse must reject.
var malformedFormulas = []string{
	"",
	"MAYBE",
	"NOT(TRUE",
	"AND()",
	"AND(TRUE TRUE)",
	"EXISTS_TRANS(TRUE)",
	"EXISTS_TRANS(LABEL(); REACHED_STATE_SAT(TRUE))",
	"EXISTS_TRANS(LABEL(a; REACHED_STATE_SAT(TRUE))",
	"EXISTS_TRANS(LABEL(a); TRUE)",
	"TRUE garbage",
}

func TestParseErrors(t *testing.T) {
	for _, src := range malformedFormulas {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Property: Parse is a left inverse of Format for the checker's formulas.
func TestParseFormatPropertyOnGenerated(t *testing.T) {
	// Reuse the satisfaction test structures: build a few formulas via
	// nesting and verify Parse∘Format is identity under Format.
	base := []Formula{True{}, Not{F: True{}}}
	for depth := 0; depth < 3; depth++ {
		var next []Formula
		for i, f := range base {
			next = append(next,
				Diamond{Label: "a", F: f},
				DiamondWeak{Label: "s.x#t.y", F: f},
				Not{F: f},
				And{Fs: []Formula{f, base[(i+1)%len(base)]}},
			)
		}
		base = next[:min(len(next), 12)]
	}
	for _, f := range base {
		text := Format(f)
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if Format(got) != text {
			t.Errorf("not a fixed point: %s", text)
		}
	}
}

// depth returns the modal depth of the formula.
func depth(f Formula) int {
	switch x := f.(type) {
	case True:
		return 0
	case Not:
		return depth(x.F)
	case And:
		d := 0
		for _, g := range x.Fs {
			if dg := depth(g); dg > d {
				d = dg
			}
		}
		return d
	case Diamond:
		return 1 + depth(x.F)
	case DiamondWeak:
		return 1 + depth(x.F)
	default:
		return 0
	}
}
