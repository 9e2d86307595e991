// Package lexer implements a hand-written lexer for the supported Verilog
// subset. It produces tokens on demand (Next), which the parser pulls one at
// a time, and reports precise source positions for diagnostics.
package lexer

import (
	"fmt"

	"repro/internal/verilog/token"
)

// Error describes a lexical error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("lex error at %s: %s", e.Pos, e.Msg)
}

// Lexer tokenizes Verilog source text. The zero value is not usable; use New.
type Lexer struct {
	src  string
	off  int // byte offset of next rune
	line int
	col  int
	errs []*Error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns lexical errors accumulated so far.
func (l *Lexer) Errors() []*Error {
	return l.errs
}

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{Line: l.line, Col: l.col}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '$' }

func isBaseDigit(c byte) bool {
	switch {
	case isDigit(c):
		return true
	case c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
		return true
	case c == 'x' || c == 'X' || c == 'z' || c == 'Z' || c == '?':
		return true
	case c == '_':
		return true
	}
	return false
}

// skipSpaceAndComments consumes whitespace, // line comments and /* block */
// comments.
func (l *Lexer) skipSpaceAndComments() {
	for {
		c := l.peek()
		switch {
		case isSpace(c):
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.peek() != 0 && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.peek() != 0 {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
				return
			}
		default:
			return
		}
	}
}

// Next returns the next token. After the end of input it returns EOF tokens
// forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	c := l.peek()
	if c == 0 {
		return token.Token{Kind: token.EOF, Pos: pos}
	}

	switch {
	case isIdentStart(c):
		return l.lexIdent(pos)
	case isDigit(c) || c == '\'':
		return l.lexNumber(pos)
	case c == '$':
		return l.lexSysID(pos)
	}

	l.advance()
	mk := func(k token.Kind, text string) token.Token {
		return token.Token{Kind: k, Text: text, Pos: pos}
	}
	switch c {
	case '(':
		return mk(token.LParen, "(")
	case ')':
		return mk(token.RParen, ")")
	case '[':
		return mk(token.LBrack, "[")
	case ']':
		return mk(token.RBrack, "]")
	case '{':
		return mk(token.LBrace, "{")
	case '}':
		return mk(token.RBrace, "}")
	case ',':
		return mk(token.Comma, ",")
	case ';':
		return mk(token.Semi, ";")
	case ':':
		return mk(token.Colon, ":")
	case '.':
		return mk(token.Dot, ".")
	case '#':
		return mk(token.Hash, "#")
	case '@':
		return mk(token.At, "@")
	case '?':
		return mk(token.Question, "?")
	case '+':
		if l.peek() == ':' {
			l.advance()
			return mk(token.PlusColon, "+:")
		}
		return mk(token.Plus, "+")
	case '-':
		if l.peek() == ':' {
			l.advance()
			return mk(token.MinusColon, "-:")
		}
		return mk(token.Minus, "-")
	case '*':
		return mk(token.Star, "*")
	case '/':
		return mk(token.Slash, "/")
	case '%':
		return mk(token.Percent, "%")
	case '&':
		if l.peek() == '&' {
			l.advance()
			return mk(token.AmpAmp, "&&")
		}
		return mk(token.Amp, "&")
	case '|':
		if l.peek() == '|' {
			l.advance()
			return mk(token.PipePipe, "||")
		}
		return mk(token.Pipe, "|")
	case '^':
		if l.peek() == '~' {
			l.advance()
			return mk(token.TildeCaret, "^~")
		}
		return mk(token.Caret, "^")
	case '~':
		switch l.peek() {
		case '&':
			l.advance()
			return mk(token.TildeAmp, "~&")
		case '|':
			l.advance()
			return mk(token.TildePipe, "~|")
		case '^':
			l.advance()
			return mk(token.TildeCaret, "~^")
		}
		return mk(token.Tilde, "~")
	case '!':
		if l.peek() == '=' {
			l.advance()
			if l.peek() == '=' {
				l.advance()
				return mk(token.CaseNeq, "!==")
			}
			return mk(token.Neq, "!=")
		}
		return mk(token.Bang, "!")
	case '=':
		if l.peek() == '=' {
			l.advance()
			if l.peek() == '=' {
				l.advance()
				return mk(token.CaseEq, "===")
			}
			return mk(token.Eq, "==")
		}
		return mk(token.Assign, "=")
	case '<':
		switch l.peek() {
		case '=':
			l.advance()
			return mk(token.Leq, "<=")
		case '<':
			l.advance()
			if l.peek() == '<' {
				l.advance()
				return mk(token.AShl, "<<<")
			}
			return mk(token.Shl, "<<")
		}
		return mk(token.Lt, "<")
	case '>':
		switch l.peek() {
		case '=':
			l.advance()
			return mk(token.Geq, ">=")
		case '>':
			l.advance()
			if l.peek() == '>' {
				l.advance()
				return mk(token.AShr, ">>>")
			}
			return mk(token.Shr, ">>")
		}
		return mk(token.Gt, ">")
	}

	l.errorf(pos, "unexpected character %q", string(c))
	return token.Token{Kind: token.Illegal, Text: string(c), Pos: pos}
}

func (l *Lexer) lexIdent(pos token.Pos) token.Token {
	start := l.off
	for isIdentPart(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	return token.Token{Kind: token.Lookup(text), Text: text, Pos: pos}
}

func (l *Lexer) lexSysID(pos token.Pos) token.Token {
	start := l.off
	l.advance() // consume '$'
	for isIdentPart(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	if len(text) == 1 {
		l.errorf(pos, "bare '$' is not a valid token")
		return token.Token{Kind: token.Illegal, Text: text, Pos: pos}
	}
	return token.Token{Kind: token.SysID, Text: text, Pos: pos}
}

// lexNumber handles plain decimal numbers, based literals with optional size
// (8'hFF, 'b0, 4'b1x0z), and underscores in digit groups.
func (l *Lexer) lexNumber(pos token.Pos) token.Token {
	start := l.off
	// Optional decimal size before the base marker.
	for isDigit(l.peek()) || l.peek() == '_' {
		l.advance()
	}
	if l.peek() != '\'' {
		// Plain decimal number.
		return token.Token{Kind: token.Number, Text: l.src[start:l.off], Pos: pos}
	}
	l.advance() // consume quote
	if l.peek() == 's' || l.peek() == 'S' {
		l.advance()
	}
	base := l.peek()
	switch base {
	case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
		l.advance()
	default:
		l.errorf(pos, "invalid number base %q", string(base))
		return token.Token{Kind: token.Illegal, Text: l.src[start:l.off], Pos: pos}
	}
	ndigits := 0
	for isBaseDigit(l.peek()) {
		if l.peek() != '_' {
			ndigits++
		}
		l.advance()
	}
	if ndigits == 0 {
		l.errorf(pos, "number literal has no digits")
		return token.Token{Kind: token.Illegal, Text: l.src[start:l.off], Pos: pos}
	}
	return token.Token{Kind: token.Number, Text: l.src[start:l.off], Pos: pos}
}

// All tokenizes the whole input, returning every token up to and including
// the first EOF. The parser does not use it: Parse streams tokens with Next,
// one token of lookahead, so no token slice is built per parse. All remains
// for the benchmark's lexer replay and for tests that compare against the
// whole-input token stream.
func (l *Lexer) All() []token.Token {
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}
