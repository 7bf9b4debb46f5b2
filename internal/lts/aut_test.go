package lts

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rates"
	"repro/internal/statespace"
)

func TestWriteAUT(t *testing.T) {
	syms := statespace.NewSymbols()
	l := build(syms, 3, 0, []edge{
		{src: 0, dst: 1, label: syms.Intern("a"), rate: rates.ExpRate(2)},
		{src: 1, dst: 2, label: TauIndex, rate: rates.UntimedRate()},
		{src: 2, dst: 0, label: syms.Intern("b"), rate: rates.UntimedRate()},
	})
	var sb strings.Builder
	if err := WriteAUT(&sb, l); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"des (0, 3, 3)",
		`(0, "a {exp(2)}", 1)`,
		`(1, "tau", 2)`,
		`(2, "b", 0)`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("AUT output missing %q:\n%s", want, out)
		}
	}
}

// xyCycle is the four-state cycle 1 -x-> 0 -tau-> 2 -"y y"-> 3 -x-> 1,
// entered at state 1, whose first edge carries rate r and the others
// none; the label with a space tests the quoting.
func xyCycle(r rates.Rate) *LTS {
	syms := statespace.NewSymbols()
	x := syms.Intern("x")
	return build(syms, 4, 1, []edge{
		{src: 1, dst: 0, label: x, rate: r},
		{src: 0, dst: 2, label: TauIndex, rate: rates.UntimedRate()},
		{src: 2, dst: 3, label: syms.Intern("y y"), rate: rates.UntimedRate()},
		{src: 3, dst: 1, label: x, rate: rates.UntimedRate()},
	})
}

func TestReadAUTRoundTrip(t *testing.T) {
	l := xyCycle(rates.UntimedRate())
	var sb strings.Builder
	if err := WriteAUT(&sb, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAUT(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStates != l.NumStates || got.Initial != l.Initial ||
		got.NumTransitions() != l.NumTransitions() {
		t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
			got.NumStates, got.Initial, got.NumTransitions(),
			l.NumStates, l.Initial, l.NumTransitions())
	}
	// Tau is preserved as tau.
	tauSeen := false
	got.Edges(func(src, dst, label int, _ rates.Rate) {
		if label == TauIndex {
			tauSeen = true
		}
	})
	if !tauSeen {
		t.Error("tau transition lost")
	}
}

func TestReadAUTVariants(t *testing.T) {
	// Unquoted labels and the CADP invisible action "i".
	src := "des (0, 2, 2)\n(0, i, 1)\n(1, hello, 0)\n"
	l, err := ReadAUT(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates != 2 || l.NumTransitions() != 2 {
		t.Fatalf("shape: %d states %d transitions", l.NumStates, l.NumTransitions())
	}
	tauSeen := false
	l.Edges(func(src, dst, label int, _ rates.Rate) {
		if label == TauIndex {
			tauSeen = true
		}
	})
	if !tauSeen {
		t.Error("\"i\" should map to tau")
	}
}

// autErrorCases are inputs ReadAUT must reject; they also seed
// FuzzReadAUT.
var autErrorCases = []struct {
	name string
	src  string
}{
	{"empty input", ""},
	{"bad header", "not a header\n"},
	{"initial out of range", "des (5, 0, 2)\n"},
	{"negative initial", "des (-1, 0, 2)\n"},
	{"negative transition count", "des (0, -1, 2)\n"},
	{"zero states", "des (0, 0, 0)\n"},
	{"negative states", "des (0, 0, -3)\n"},
	{"too many states", "des (0, 0, 4000000000)\n"},
	{"destination out of range", "des (0, 1, 2)\n(0, \"a\", 9)\n"},
	{"negative source", "des (0, 1, 2)\n(-1, \"a\", 1)\n"},
	{"negative destination", "des (0, 1, 2)\n(0, \"a\", -2)\n"},
	{"transition count mismatch", "des (0, 2, 2)\n(0, \"a\", 1)\n"},
	{"malformed line", "des (0, 1, 2)\nnot-a-transition\n"},
	{"bad source", "des (0, 1, 2)\n(x, \"a\", 1)\n"},
	{"bad destination", "des (0, 1, 2)\n(0, \"a\", y)\n"},
	{"unterminated quote", "des (0, 1, 2)\n(0, \"unterm, 1)\n"},
	{"unterminated quote with escape", "des (0, 1, 2)\n(0, \"trail\\\", 1)\n"},
	{"no comma after quoted label", "des (0, 1, 2)\n(0, \"a\" 1)\n"},
	{"missing commas", "des (0, 1, 2)\n(0 \"nocommas\" 1)\n"},
}

func TestReadAUTErrors(t *testing.T) {
	for _, tt := range autErrorCases {
		if _, err := ReadAUT(strings.NewReader(tt.src)); err == nil {
			t.Errorf("%s: should fail: %q", tt.name, tt.src)
		}
	}
}

// fuzzAUTMaxStates bounds the declared state count FuzzReadAUT re-encodes:
// a header may declare up to DefaultMaxStates edgeless states, which
// ReadAUT accepts without allocating but WriteAUT would lay out as a CSR
// row index on every fuzz iteration.
const fuzzAUTMaxStates = 1 << 16

// FuzzReadAUT checks the .aut parser on arbitrary bytes: ReadAUT never
// panics, and every input it accepts round-trips through WriteAUT — the
// re-encoding parses back to a system that encodes to the same text, with
// the same state, initial-state and transition counts.
func FuzzReadAUT(f *testing.F) {
	f.Add([]byte("des (0, 2, 2)\n(0, i, 1)\n(1, hello, 0)\n"))
	f.Add([]byte("des (0, 1, 2)\n(0, \"a, \\\"quoted\\\" label\", 1)\n\n"))
	for _, tt := range autErrorCases {
		f.Add([]byte(tt.src))
	}
	rated := xyCycle(rates.ExpRate(2))
	var seed bytes.Buffer
	if err := WriteAUT(&seed, rated); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadAUT(bytes.NewReader(data))
		if err != nil || l.NumStates > fuzzAUTMaxStates {
			return
		}
		var first bytes.Buffer
		if err := WriteAUT(&first, l); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAUT(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded input rejected: %v\n%s", err, first.Bytes())
		}
		if back.NumStates != l.NumStates || back.Initial != l.Initial || back.NumTransitions() != l.NumTransitions() {
			t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
				back.NumStates, back.Initial, back.NumTransitions(), l.NumStates, l.Initial, l.NumTransitions())
		}
		var second bytes.Buffer
		if err := WriteAUT(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the encoding:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestReadAUTRejectsOversizedHeader pins the state-count bound: a header
// declaring more than DefaultMaxStates states fails before any per-state
// allocation, and the error names both the declared count and the limit.
func TestReadAUTRejectsOversizedHeader(t *testing.T) {
	_, err := ReadAUT(strings.NewReader("des (0, 0, 4000000000)\n"))
	if err == nil {
		t.Fatal("header declaring 4e9 states accepted")
	}
	for _, want := range []string{"4000000000", strconv.Itoa(DefaultMaxStates)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if _, err := ReadAUT(strings.NewReader(fmt.Sprintf("des (0, 0, %d)\n", DefaultMaxStates))); err != nil {
		t.Errorf("header at the limit rejected: %v", err)
	}
}
