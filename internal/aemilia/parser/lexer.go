// Package parser implements a lexer and recursive-descent parser for the
// textual .aem syntax of architectural descriptions — the Æmilia-like
// notation used throughout the paper (ARCHI_TYPE / ELEM_TYPE / BEHAVIOR /
// choice / cond / ARCHI_TOPOLOGY / attachments), including rate
// annotations exp(λ), inf(prio, weight), passive(w) and the untimed
// placeholder "_".
package parser

import (
	"fmt"
	"unicode/utf8"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokNumber
	tokPunct // single- or multi-character punctuation, in Text
)

// token is one lexical token with its position.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// SyntaxError reports a lexical or syntactic error with position.
type SyntaxError struct {
	// Line and Col locate the error (1-based).
	Line, Col int
	// Msg describes the problem.
	Msg string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("aemilia: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer tokenizes .aem source.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (lx *lexer) errf(line, col int, format string, args ...any) error {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) advance() byte {
	ch := lx.src[lx.pos]
	lx.pos++
	if ch == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return ch
}

// next returns the next token. Its text is a slice of the source, so
// lexing allocates nothing; the token's kind is decided by its first byte.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		if isSpace(c) {
			lx.advance()
			continue
		}
		// Skip // line comments.
		if c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/' {
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
			continue
		}
		break
	}
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: lx.line, col: lx.col}, nil
	}
	line, col, start := lx.line, lx.col, lx.pos
	ch := lx.peekByte()
	switch {
	case isIdentStart(ch):
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		return token{kind: tokIdent, text: lx.src[start:lx.pos], line: line, col: col}, nil
	case isDigit(ch):
		lx.number()
		return token{kind: tokNumber, text: lx.src[start:lx.pos], line: line, col: col}, nil
	}
	switch ch {
	case '-', '!', '<', '>', '=':
		// Two-character punctuation: "->", "!=", "<=", ">=", "==".
		if lx.pos+1 < len(lx.src) {
			if c2 := lx.src[lx.pos+1]; ch == '-' && c2 == '>' || ch != '-' && c2 == '=' {
				lx.advance()
			}
		}
		lx.advance()
		return token{kind: tokPunct, text: lx.src[start:lx.pos], line: line, col: col}, nil
	case '(', ')', '{', '}', ',', ';', ':', '.', '#', '+', '*', '/', '%':
		lx.advance()
		return token{kind: tokPunct, text: lx.src[start:lx.pos], line: line, col: col}, nil
	}
	// Report the whole UTF-8 character, or an invalid byte as \xNN.
	_, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
	return token{}, lx.errf(line, col, "unexpected character %q", lx.src[lx.pos:lx.pos+size])
}

// number consumes a numeric literal: digits, then a fraction and an
// exponent, each optional.
func (lx *lexer) number() {
	seenDot := false
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		if isDigit(c) {
			lx.advance()
			continue
		}
		// A dot is part of the number only when followed by a digit,
		// so "3 . P()" and "0.5" both lex correctly.
		if c == '.' && !seenDot && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]) {
			seenDot = true
			lx.advance()
			continue
		}
		if c == 'e' || c == 'E' {
			// Exponent part: e[+-]?digits.
			j := lx.pos + 1
			if j < len(lx.src) && (lx.src[j] == '+' || lx.src[j] == '-') {
				j++
			}
			if j < len(lx.src) && isDigit(lx.src[j]) {
				for lx.pos < j {
					lx.advance()
				}
				for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
					lx.advance()
				}
				continue
			}
		}
		return
	}
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

func isIdentStart(b byte) bool {
	return b == '_' || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z')
}

func isIdentPart(b byte) bool { return isIdentStart(b) || isDigit(b) }

func isDigit(b byte) bool { return '0' <= b && b <= '9' }
