// Package parser implements a recursive-descent parser for the supported
// Verilog subset. It consumes the lexer's token stream and produces ast
// nodes, accumulating all syntax errors instead of stopping at the first.
package parser

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/verilog/ast"
	"repro/internal/verilog/lexer"
	"repro/internal/verilog/token"
)

// ErrSyntax is the sentinel wrapped by all parse errors.
var ErrSyntax = errors.New("verilog syntax error")

// Error is a single syntax diagnostic.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

// ErrorList aggregates every diagnostic from one parse.
type ErrorList []*Error

// Error implements the error interface, joining the first few messages.
func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	var b strings.Builder
	for i, e := range l {
		if i == 3 {
			fmt.Fprintf(&b, "; and %d more", len(l)-i)
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

// Is reports that an ErrorList is a syntax error.
func (l ErrorList) Is(target error) bool { return target == ErrSyntax }

const maxErrors = 20

// parser pulls tokens from the lexer one at a time: the grammar needs one
// token of lookahead, so no token slice is ever built.
type parser struct {
	lx   *lexer.Lexer
	tok  token.Token // current token
	errs ErrorList
}

// Parse parses a full compilation unit (one or more modules).
func Parse(src string) (*ast.Source, error) {
	out, errs := parse(src)
	if len(errs) > 0 {
		return out, fmt.Errorf("%w: %s", ErrSyntax, errs.Error())
	}
	if len(out.Modules) == 0 {
		return out, fmt.Errorf("%w: no module found", ErrSyntax)
	}
	return out, nil
}

// parse returns the parsed unit and every diagnostic. Lexical errors over
// the whole input lead the list, in source order, and count toward the
// maxErrors cap. Streaming only learns of them as it goes, so the first
// pass parses with parser errors alone and then lexes the rest of the input;
// if that found any lexical error, the parse is repeated with the list
// seeded with them, which is what the parser's decisions (the cap) depend
// on. Only input with a lexical error pays for the second pass.
func parse(src string) (*ast.Source, ErrorList) {
	out, errs, lexErrs := parsePass(src, nil)
	if len(lexErrs) == 0 {
		return out, errs
	}
	seed := make(ErrorList, len(lexErrs), len(lexErrs)+maxErrors)
	for i, le := range lexErrs {
		seed[i] = &Error{Pos: le.Pos, Msg: le.Msg}
	}
	out, errs, _ = parsePass(src, seed)
	return out, errs
}

// parsePass runs the parser once over src with the diagnostic list starting
// at seed, then drains the lexer to EOF and returns its errors.
func parsePass(src string, seed ErrorList) (*ast.Source, ErrorList, []*lexer.Error) {
	p := &parser{lx: lexer.New(src), errs: seed}
	p.tok = p.lx.Next()
	out := &ast.Source{}
	for !p.at(token.EOF) && len(p.errs) < maxErrors {
		m := p.parseModule()
		if m == nil {
			break
		}
		out.Modules = append(out.Modules, m)
	}
	for p.tok.Kind != token.EOF {
		p.tok = p.lx.Next()
	}
	return out, p.errs, p.lx.Errors()
}

// ParseModule parses a source expected to contain exactly one module and
// returns it.
func ParseModule(src string) (*ast.Module, error) {
	s, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.Modules[0], nil
}

func (p *parser) cur() token.Token     { return p.tok }
func (p *parser) at(k token.Kind) bool { return p.tok.Kind == k }

func (p *parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok = p.lx.Next()
	}
	return t
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) < maxErrors {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// expect consumes a token of kind k or records an error.
func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

// accept consumes a token of kind k if present.
func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

// syncTo skips tokens until one of the kinds (or EOF) is current.
func (p *parser) syncTo(kinds ...token.Kind) {
	for !p.at(token.EOF) {
		for _, k := range kinds {
			if p.at(k) {
				return
			}
		}
		p.next()
	}
}

// --- Module ------------------------------------------------------------------

func (p *parser) parseModule() *ast.Module {
	if !p.at(token.KwModule) {
		p.errorf(p.cur().Pos, "expected 'module', found %s", p.cur())
		return nil
	}
	modTok := p.next()
	name := p.expect(token.Ident)
	m := &ast.Module{ModPos: modTok.Pos, Name: name.Text}

	if p.accept(token.LParen) {
		p.parsePortList(m)
		p.expect(token.RParen)
	}
	p.expect(token.Semi)

	for !p.at(token.KwEndmodule) && !p.at(token.EOF) && len(p.errs) < maxErrors {
		item := p.parseItem()
		if item != nil {
			m.Items = append(m.Items, item)
		}
	}
	p.expect(token.KwEndmodule)
	return m
}

// parsePortList parses an ANSI-style port list. Direction, reg-ness and range
// are sticky across comma-separated names until overridden.
func (p *parser) parsePortList(m *ast.Module) {
	if p.at(token.RParen) {
		return
	}
	var (
		dir    ast.Dir
		isReg  bool
		signed bool
		rng    *ast.Range
	)
	for {
		pos := p.cur().Pos
		changed := false
		switch p.cur().Kind {
		case token.KwInput:
			p.next()
			dir, isReg, signed, rng, changed = ast.Input, false, false, nil, true
		case token.KwOutput:
			p.next()
			dir, isReg, signed, rng, changed = ast.Output, false, false, nil, true
		case token.KwInout:
			p.next()
			dir, isReg, signed, rng, changed = ast.Inout, false, false, nil, true
		}
		if changed {
			if p.accept(token.KwReg) {
				isReg = true
			} else {
				p.accept(token.KwWire)
			}
			if p.accept(token.KwSigned) {
				signed = true
			}
			if p.at(token.LBrack) {
				rng = p.parseRange()
			}
		}
		if dir == 0 {
			p.errorf(pos, "port without direction")
			p.syncTo(token.RParen, token.Semi)
			return
		}
		nameTok := p.expect(token.Ident)
		m.Ports = append(m.Ports, &ast.Port{
			PortPos: pos,
			Dir:     dir,
			IsReg:   isReg,
			Signed:  signed,
			Range:   rng,
			Name:    nameTok.Text,
		})
		if !p.accept(token.Comma) {
			return
		}
	}
}

func (p *parser) parseRange() *ast.Range {
	p.expect(token.LBrack)
	msb := p.parseExpr()
	p.expect(token.Colon)
	lsb := p.parseExpr()
	p.expect(token.RBrack)
	return &ast.Range{MSB: msb, LSB: lsb}
}

// --- Items -------------------------------------------------------------------

func (p *parser) parseItem() ast.Item {
	switch p.cur().Kind {
	case token.KwWire, token.KwReg, token.KwInteger, token.KwGenvar:
		return p.parseNetDecl()
	case token.KwParameter, token.KwLocalparam:
		return p.parseParamDecl()
	case token.KwAssign:
		return p.parseContAssign()
	case token.KwAlways:
		return p.parseAlways()
	case token.KwInitial:
		tok := p.next()
		body := p.parseStmt()
		return &ast.Initial{InitPos: tok.Pos, Body: body}
	case token.Ident:
		return p.parseInstance()
	default:
		p.errorf(p.cur().Pos, "unexpected token %s in module body", p.cur())
		p.next()
		p.syncTo(token.Semi, token.KwEndmodule)
		p.accept(token.Semi)
		return nil
	}
}

func (p *parser) parseNetDecl() ast.Item {
	tok := p.next()
	var kind ast.NetKind
	switch tok.Kind {
	case token.KwWire:
		kind = ast.Wire
	case token.KwReg:
		kind = ast.Reg
	case token.KwInteger, token.KwGenvar:
		kind = ast.Integer
	}
	d := &ast.NetDecl{DeclPos: tok.Pos, Kind: kind}
	if p.accept(token.KwSigned) {
		d.Signed = true
	}
	if p.at(token.LBrack) {
		d.Range = p.parseRange()
	}
	for {
		name := p.expect(token.Ident)
		d.Names = append(d.Names, name.Text)
		var initExpr ast.Expr
		if p.accept(token.Assign) {
			initExpr = p.parseExpr()
		}
		d.Init = append(d.Init, initExpr)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semi)
	return d
}

func (p *parser) parseParamDecl() ast.Item {
	tok := p.next()
	d := &ast.ParamDecl{DeclPos: tok.Pos, Local: tok.Kind == token.KwLocalparam}
	if p.at(token.LBrack) {
		d.Range = p.parseRange()
	}
	name := p.expect(token.Ident)
	d.Name = name.Text
	p.expect(token.Assign)
	d.Value = p.parseExpr()
	p.expect(token.Semi)
	return d
}

func (p *parser) parseContAssign() ast.Item {
	tok := p.next()
	lhs := p.parseExpr()
	p.expect(token.Assign)
	rhs := p.parseExpr()
	p.expect(token.Semi)
	return &ast.ContAssign{AssignPos: tok.Pos, LHS: lhs, RHS: rhs}
}

func (p *parser) parseAlways() ast.Item {
	tok := p.next()
	a := &ast.Always{AlwaysPos: tok.Pos}
	if p.accept(token.At) {
		if p.accept(token.Star) {
			a.Star = true
		} else {
			p.expect(token.LParen)
			if p.accept(token.Star) {
				a.Star = true
			} else {
				for {
					ev := ast.Event{Edge: ast.EdgeNone}
					switch p.cur().Kind {
					case token.KwPosedge:
						p.next()
						ev.Edge = ast.EdgePos
					case token.KwNegedge:
						p.next()
						ev.Edge = ast.EdgeNeg
					}
					ev.Sig = p.parseExpr()
					a.Events = append(a.Events, ev)
					if !p.accept(token.KwOr) && !p.accept(token.Comma) {
						break
					}
				}
			}
			p.expect(token.RParen)
		}
	} else {
		p.errorf(tok.Pos, "always block without event control is not supported")
	}
	a.Body = p.parseStmt()
	return a
}

// parseInstance parses `modname instname ( ... );` with optional #(...)
// parameter overrides.
func (p *parser) parseInstance() ast.Item {
	mod := p.expect(token.Ident)
	inst := &ast.Instance{InstPos: mod.Pos, ModName: mod.Text}
	if p.accept(token.Hash) {
		p.expect(token.LParen)
		inst.ParamsBy = p.parseConnList()
		p.expect(token.RParen)
	}
	name := p.expect(token.Ident)
	inst.Name = name.Text
	p.expect(token.LParen)
	inst.Conns = p.parseConnList()
	for _, c := range inst.Conns {
		if c.Name != "" {
			inst.ByName = true
			break
		}
	}
	p.expect(token.RParen)
	p.expect(token.Semi)
	return inst
}

func (p *parser) parseConnList() []ast.PortConn {
	var conns []ast.PortConn
	if p.at(token.RParen) {
		return conns
	}
	for {
		var c ast.PortConn
		if p.accept(token.Dot) {
			nameTok := p.expect(token.Ident)
			c.Name = nameTok.Text
			p.expect(token.LParen)
			if !p.at(token.RParen) {
				c.Expr = p.parseExpr()
			}
			p.expect(token.RParen)
		} else {
			c.Expr = p.parseExpr()
		}
		conns = append(conns, c)
		if !p.accept(token.Comma) {
			return conns
		}
	}
}

// --- Statements ----------------------------------------------------------------

func (p *parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.KwBegin:
		return p.parseBlock()
	case token.KwIf:
		return p.parseIf()
	case token.KwCase, token.KwCasez, token.KwCasex:
		return p.parseCase()
	case token.KwFor:
		return p.parseFor()
	case token.Ident, token.LBrace:
		return p.parseAssignStmt()
	case token.Semi:
		// Empty statement: normalize to an empty block.
		tok := p.next()
		return &ast.Block{BeginPos: tok.Pos}
	default:
		p.errorf(p.cur().Pos, "unexpected token %s at start of statement", p.cur())
		p.next()
		p.syncTo(token.Semi, token.KwEnd, token.KwEndmodule)
		p.accept(token.Semi)
		return &ast.Block{BeginPos: p.cur().Pos}
	}
}

func (p *parser) parseBlock() ast.Stmt {
	tok := p.expect(token.KwBegin)
	b := &ast.Block{BeginPos: tok.Pos}
	if p.accept(token.Colon) {
		name := p.expect(token.Ident)
		b.Name = name.Text
	}
	for !p.at(token.KwEnd) && !p.at(token.EOF) && len(p.errs) < maxErrors {
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	p.expect(token.KwEnd)
	return b
}

func (p *parser) parseIf() ast.Stmt {
	tok := p.expect(token.KwIf)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.KwElse) {
		els = p.parseStmt()
	}
	return &ast.If{IfPos: tok.Pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseCase() ast.Stmt {
	tok := p.next()
	var kind ast.CaseKind
	switch tok.Kind {
	case token.KwCase:
		kind = ast.CasePlain
	case token.KwCasez:
		kind = ast.CaseZ
	case token.KwCasex:
		kind = ast.CaseX
	}
	p.expect(token.LParen)
	subj := p.parseExpr()
	p.expect(token.RParen)
	c := &ast.Case{CasePos: tok.Pos, Kind: kind, Subject: subj}
	for !p.at(token.KwEndcase) && !p.at(token.EOF) && len(p.errs) < maxErrors {
		item := &ast.CaseItem{ItemPos: p.cur().Pos}
		if p.accept(token.KwDefault) {
			p.accept(token.Colon)
		} else {
			for {
				item.Labels = append(item.Labels, p.parseExpr())
				if !p.accept(token.Comma) {
					break
				}
			}
			p.expect(token.Colon)
		}
		item.Body = p.parseStmt()
		c.Items = append(c.Items, item)
	}
	p.expect(token.KwEndcase)
	return c
}

func (p *parser) parseFor() ast.Stmt {
	tok := p.expect(token.KwFor)
	p.expect(token.LParen)
	initStmt := p.parseSimpleAssign()
	p.expect(token.Semi)
	cond := p.parseExpr()
	p.expect(token.Semi)
	step := p.parseSimpleAssign()
	p.expect(token.RParen)
	body := p.parseStmt()
	return &ast.For{ForPos: tok.Pos, Init: initStmt, Cond: cond, Step: step, Body: body}
}

// parseSimpleAssign parses `lhs = rhs` (no semicolon) used in for headers.
func (p *parser) parseSimpleAssign() *ast.AssignStmt {
	lhs := p.parsePrimary()
	p.expect(token.Assign)
	rhs := p.parseExpr()
	return &ast.AssignStmt{LHS: lhs, RHS: rhs, Blocking: true}
}

// parseAssignStmt parses a blocking or non-blocking procedural assignment.
// The `<=` token doubles as less-equal; in statement-lead position it is a
// non-blocking assignment.
func (p *parser) parseAssignStmt() ast.Stmt {
	lhs := p.parseLValue()
	var blocking bool
	switch p.cur().Kind {
	case token.Assign:
		p.next()
		blocking = true
	case token.Leq:
		p.next()
		blocking = false
	default:
		p.errorf(p.cur().Pos, "expected '=' or '<=' in assignment, found %s", p.cur())
		p.syncTo(token.Semi, token.KwEnd, token.KwEndmodule)
		p.accept(token.Semi)
		return &ast.Block{BeginPos: p.cur().Pos}
	}
	rhs := p.parseExpr()
	p.expect(token.Semi)
	return &ast.AssignStmt{LHS: lhs, RHS: rhs, Blocking: blocking}
}

// parseLValue parses an assignment target: identifier with optional selects,
// or a concatenation of lvalues.
func (p *parser) parseLValue() ast.Expr {
	if p.at(token.LBrace) {
		tok := p.next()
		c := &ast.Concat{LbPos: tok.Pos}
		for {
			c.Parts = append(c.Parts, p.parseLValue())
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RBrace)
		return c
	}
	name := p.expect(token.Ident)
	var e ast.Expr = &ast.Ident{NamePos: name.Pos, Name: name.Text}
	return p.parseSelects(e)
}

// --- Expressions ---------------------------------------------------------------

// Binding powers for the precedence climber, tightest first. Mirrors the
// Verilog operator precedence table.
func binaryPrec(k token.Kind) (ast.BinaryOp, int) {
	switch k {
	case token.Star:
		return ast.Mul, 10
	case token.Slash:
		return ast.Div, 10
	case token.Percent:
		return ast.Mod, 10
	case token.Plus:
		return ast.Add, 9
	case token.Minus:
		return ast.Sub, 9
	case token.Shl:
		return ast.Shl, 8
	case token.Shr:
		return ast.Shr, 8
	case token.AShl:
		return ast.AShl, 8
	case token.AShr:
		return ast.AShr, 8
	case token.Lt:
		return ast.Lt, 7
	case token.Leq:
		return ast.Leq, 7
	case token.Gt:
		return ast.Gt, 7
	case token.Geq:
		return ast.Geq, 7
	case token.Eq:
		return ast.Eq, 6
	case token.Neq:
		return ast.Neq, 6
	case token.CaseEq:
		return ast.CaseEq, 6
	case token.CaseNeq:
		return ast.CaseNeq, 6
	case token.Amp:
		return ast.BitAnd, 5
	case token.Caret:
		return ast.BitXor, 4
	case token.TildeCaret:
		return ast.BitXnor, 4
	case token.Pipe:
		return ast.BitOr, 3
	case token.AmpAmp:
		return ast.LogAnd, 2
	case token.PipePipe:
		return ast.LogOr, 1
	}
	return 0, 0
}

func (p *parser) parseExpr() ast.Expr {
	return p.parseTernary()
}

func (p *parser) parseTernary() ast.Expr {
	cond := p.parseBinary(1)
	if !p.accept(token.Question) {
		return cond
	}
	then := p.parseTernary()
	p.expect(token.Colon)
	els := p.parseTernary()
	return &ast.Ternary{Cond: cond, Then: then, Else: els}
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		op, prec := binaryPrec(p.cur().Kind)
		if prec < minPrec || prec == 0 {
			return lhs
		}
		p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &ast.Binary{Op: op, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() ast.Expr {
	pos := p.cur().Pos
	var op ast.UnaryOp
	switch p.cur().Kind {
	case token.Plus:
		op = ast.UnaryPlus
	case token.Minus:
		op = ast.UnaryMinus
	case token.Bang:
		op = ast.LogicalNot
	case token.Tilde:
		op = ast.BitNot
	case token.Amp:
		op = ast.RedAnd
	case token.Pipe:
		op = ast.RedOr
	case token.Caret:
		op = ast.RedXor
	case token.TildeAmp:
		op = ast.RedNand
	case token.TildePipe:
		op = ast.RedNor
	case token.TildeCaret:
		op = ast.RedXnor
	default:
		return p.parseSelects(p.parsePrimary())
	}
	p.next()
	x := p.parseUnary()
	return &ast.Unary{OpPos: pos, Op: op, X: x}
}

// parseSelects attaches any number of [i] and [a:b] selections to e.
func (p *parser) parseSelects(e ast.Expr) ast.Expr {
	for p.at(token.LBrack) {
		p.next()
		first := p.parseExpr()
		switch p.cur().Kind {
		case token.Colon:
			p.next()
			second := p.parseExpr()
			e = &ast.PartSel{X: e, Kind: ast.SelConst, A: first, B: second}
		case token.PlusColon:
			p.next()
			second := p.parseExpr()
			e = &ast.PartSel{X: e, Kind: ast.SelPlus, A: first, B: second}
		case token.MinusColon:
			p.next()
			second := p.parseExpr()
			e = &ast.PartSel{X: e, Kind: ast.SelMinus, A: first, B: second}
		default:
			e = &ast.Index{X: e, Idx: first}
		}
		p.expect(token.RBrack)
	}
	return e
}

func (p *parser) parsePrimary() ast.Expr {
	tok := p.cur()
	switch tok.Kind {
	case token.Ident:
		p.next()
		return &ast.Ident{NamePos: tok.Pos, Name: tok.Text}
	case token.Number:
		p.next()
		n, err := ParseNumber(tok.Text)
		if err != nil {
			p.errorf(tok.Pos, "bad number literal %q: %v", tok.Text, err)
			return &ast.Number{LitPos: tok.Pos, Text: tok.Text, Width: 1, Val: []uint64{0}, XZ: []uint64{0}}
		}
		n.LitPos = tok.Pos
		return n
	case token.LParen:
		p.next()
		e := p.parseExpr()
		p.expect(token.RParen)
		return p.parseSelects(e)
	case token.LBrace:
		return p.parseConcatOrRepl()
	case token.SysID:
		p.errorf(tok.Pos, "system function %s is not supported", tok.Text)
		p.next()
		if p.accept(token.LParen) {
			depth := 1
			for depth > 0 && !p.at(token.EOF) {
				switch p.cur().Kind {
				case token.LParen:
					depth++
				case token.RParen:
					depth--
				}
				p.next()
			}
		}
		return &ast.Number{LitPos: tok.Pos, Text: "0", Width: -1, Val: []uint64{0}, XZ: []uint64{0}}
	default:
		p.errorf(tok.Pos, "unexpected token %s in expression", tok)
		p.next()
		return &ast.Number{LitPos: tok.Pos, Text: "0", Width: -1, Val: []uint64{0}, XZ: []uint64{0}}
	}
}

// parseConcatOrRepl parses {a, b} or {n{v}}.
func (p *parser) parseConcatOrRepl() ast.Expr {
	lb := p.expect(token.LBrace)
	first := p.parseExpr()
	if p.at(token.LBrace) {
		// Replication: {count {value}}.
		p.next()
		val := p.parseExpr()
		// Allow {n{a,b}} by treating multiple parts as an inner concat.
		if p.accept(token.Comma) {
			inner := &ast.Concat{LbPos: p.cur().Pos, Parts: []ast.Expr{val}}
			for {
				inner.Parts = append(inner.Parts, p.parseExpr())
				if !p.accept(token.Comma) {
					break
				}
			}
			val = inner
		}
		p.expect(token.RBrace)
		p.expect(token.RBrace)
		return &ast.Repl{LbPos: lb.Pos, Count: first, Value: val}
	}
	c := &ast.Concat{LbPos: lb.Pos, Parts: []ast.Expr{first}}
	for p.accept(token.Comma) {
		c.Parts = append(c.Parts, p.parseExpr())
	}
	p.expect(token.RBrace)
	return c
}
