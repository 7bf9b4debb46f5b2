package parser

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/aemilia"
)

// FuzzParse feeds arbitrary text to the parser: it must never panic, and
// whenever it accepts an input, the formatted output must parse again to
// the same normal form.
func FuzzParse(f *testing.F) {
	f.Add(paperRPC)
	f.Add(paramSpec)
	f.Add(multiPortSpec)
	f.Add("ARCHI_TYPE X(void) ARCHI_ELEM_TYPES ELEM_TYPE T(void) BEHAVIOR " +
		"B(void; void) = <a, _> . B() INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void " +
		"ARCHI_TOPOLOGY ARCHI_ELEM_INSTANCES I : T() END")
	f.Add("ARCHI_TYPE")
	f.Add("<<<>>>")
	f.Add("MEASURE x IS")
	f.Fuzz(func(t *testing.T, src string) {
		a, err := Parse(src)
		if err != nil {
			return
		}
		text := aemilia.Format(a)
		b, err := Parse(text)
		if err != nil {
			t.Fatalf("Format output of accepted input does not parse: %v\ninput: %q\nformatted:\n%s",
				err, src, text)
		}
		if got := aemilia.Format(b); got != text {
			t.Fatalf("Format not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, got)
		}
	})
}

// FuzzLexer checks the tokens of arbitrary inputs against the source:
// each token's text is the source at the offset its line and column give,
// offsets strictly increase, and the token texts, concatenated, are the
// source without its whitespace and // comments — up to the error
// position when lexing fails.
func FuzzLexer(f *testing.F) {
	f.Add("a bc <x, exp(1.5)> . P() // comment\n cond(n <= 3) -> stop")
	f.Add(strings.Repeat("(", 100))
	f.Add("0.5e+3 1e9 3.x .5 _x")
	for _, s := range []string{"->", "!=", "<=", ">=", "==", "-", "!", "<", ">", "=", "/", "//", "3.", "3.x", "3.e", "é", "a\xffb"} {
		f.Add(s)
		f.Add("x " + s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// lineStart[i] is the offset of line i+1.
		lineStart := []int{0}
		for i := 0; i < len(src); i++ {
			if src[i] == '\n' {
				lineStart = append(lineStart, i+1)
			}
		}
		offset := func(line, col int) int {
			if line < 1 || line > len(lineStart) || col < 1 {
				t.Fatalf("position %d:%d outside the source %q", line, col, src)
			}
			return lineStart[line-1] + col - 1
		}
		var texts strings.Builder
		end := 0 // offset just past the last token
		lx := newLexer(src)
		// Every token takes at least one byte, so EOF or an error comes
		// within len(src)+1 calls.
		for n := 0; ; n++ {
			if n > len(src) {
				t.Fatalf("lexer did not terminate on %q", src)
			}
			tok, err := lx.next()
			if err != nil {
				var se *SyntaxError
				if !errors.As(err, &se) {
					t.Fatalf("lexer error %T on %q", err, src)
				}
				at := offset(se.Line, se.Col)
				if at < end || at >= len(src) {
					t.Fatalf("error at offset %d, previous token ending at %d, in %q", at, end, src)
				}
				end = at
				break
			}
			at := offset(tok.line, tok.col)
			if tok.kind == tokEOF {
				if at != len(src) {
					t.Fatalf("EOF at offset %d of %q", at, src)
				}
				end = at
				break
			}
			if at < end || tok.text == "" || at+len(tok.text) > len(src) || src[at:at+len(tok.text)] != tok.text {
				t.Fatalf("token %q at %d:%d (offset %d, previous token ending at %d) does not match the source %q",
					tok.text, tok.line, tok.col, at, end, src)
			}
			end = at + len(tok.text)
			texts.WriteString(tok.text)
		}
		if want := stripSpaceAndComments(src[:end]); texts.String() != want {
			t.Fatalf("token texts %q, want %q (source %q)", texts.String(), want, src)
		}
	})
}

// stripSpaceAndComments drops whitespace and // line comments from src.
func stripSpaceAndComments(src string) string {
	var sb strings.Builder
	for i := 0; i < len(src); i++ {
		switch {
		case strings.HasPrefix(src[i:], "//"):
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.IndexByte(" \t\r\n", src[i]) < 0:
			sb.WriteByte(src[i])
		}
	}
	return sb.String()
}
