// Package printer renders AST nodes back to deterministic, readable Verilog
// source text. The mutation engine relies on it to materialize candidate
// code, and round-tripping through the parser is covered by tests.
//
// The Print functions return strings. Callers that only hash or copy the
// text use the Append functions with a pooled Buffer instead, so no string
// is built per print.
package printer

import (
	"sync"

	"repro/internal/verilog/ast"
)

// Print renders a full compilation unit.
func Print(s *ast.Source) string {
	return printString(func(dst []byte) []byte { return AppendSource(dst, s) })
}

// PrintModule renders one module.
func PrintModule(m *ast.Module) string {
	return printString(func(dst []byte) []byte { return AppendModule(dst, m) })
}

// PrintExpr renders an expression.
func PrintExpr(e ast.Expr) string {
	return printString(func(dst []byte) []byte { return AppendExpr(dst, e) })
}

// PrintStmt renders a statement at the given indent depth.
func PrintStmt(s ast.Stmt, depth int) string {
	return printString(func(dst []byte) []byte { return AppendStmt(dst, s, depth) })
}

// printString prints into a pooled buffer and copies the result out once.
func printString(appendTo func([]byte) []byte) string {
	buf := GetBuffer()
	buf.B = appendTo(buf.B)
	out := string(buf.B)
	PutBuffer(buf)
	return out
}

// AppendSource appends the rendering of a full compilation unit to dst
// (the bytes Print returns) and returns the extended slice.
func AppendSource(dst []byte, s *ast.Source) []byte {
	for i, m := range s.Modules {
		if i > 0 {
			dst = append(dst, '\n')
		}
		dst = AppendModule(dst, m)
	}
	return dst
}

// AppendModule appends the rendering of one module to dst.
func AppendModule(dst []byte, m *ast.Module) []byte {
	p := printer{b: dst}
	p.module(m)
	return p.b
}

// AppendExpr appends the rendering of an expression to dst.
func AppendExpr(dst []byte, e ast.Expr) []byte {
	p := printer{b: dst}
	p.expr(e, 0)
	return p.b
}

// AppendStmt appends the rendering of a statement at the given indent depth
// to dst.
func AppendStmt(dst []byte, s ast.Stmt, depth int) []byte {
	p := printer{b: dst}
	p.stmt(s, depth)
	return p.b
}

// Buffer is a reusable byte slice for the Append functions. Get one with
// GetBuffer and hand it back with PutBuffer once its bytes are no longer
// referenced.
type Buffer struct {
	B []byte
}

// maxPooledBuffer bounds the buffers the pool keeps: one huge design must not
// pin its print buffer for the life of the process.
const maxPooledBuffer = 64 << 10

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *Buffer {
	buf := bufPool.Get().(*Buffer)
	buf.B = buf.B[:0]
	return buf
}

// PutBuffer returns buf to the pool unless it has grown past the pooling
// cap.
func PutBuffer(buf *Buffer) {
	if cap(buf.B) > maxPooledBuffer {
		return
	}
	bufPool.Put(buf)
}

type printer struct {
	b []byte
}

// ws appends s to the output.
func (p *printer) ws(s string) { p.b = append(p.b, s...) }

func (p *printer) indent(depth int) {
	for i := 0; i < depth; i++ {
		p.ws("    ")
	}
}

func (p *printer) module(m *ast.Module) {
	p.ws("module ")
	p.ws(m.Name)
	if len(m.Ports) > 0 {
		p.ws(" (\n")
		for i, port := range m.Ports {
			p.indent(1)
			p.ws(port.Dir.String())
			if port.IsReg {
				p.ws(" reg")
			}
			if port.Signed {
				p.ws(" signed")
			}
			if port.Range != nil {
				p.ws(" ")
				p.rng(port.Range)
			}
			p.ws(" ")
			p.ws(port.Name)
			if i < len(m.Ports)-1 {
				p.ws(",")
			}
			p.ws("\n")
		}
		p.ws(")")
	}
	p.ws(";\n")
	for _, item := range m.Items {
		p.item(item)
	}
	p.ws("endmodule\n")
}

func (p *printer) rng(r *ast.Range) {
	p.ws("[")
	p.expr(r.MSB, 0)
	p.ws(":")
	p.expr(r.LSB, 0)
	p.ws("]")
}

func (p *printer) item(item ast.Item) {
	switch it := item.(type) {
	case *ast.NetDecl:
		p.indent(1)
		p.ws(it.Kind.String())
		if it.Signed {
			p.ws(" signed")
		}
		if it.Range != nil {
			p.ws(" ")
			p.rng(it.Range)
		}
		p.ws(" ")
		for i, name := range it.Names {
			if i > 0 {
				p.ws(", ")
			}
			p.ws(name)
			if i < len(it.Init) && it.Init[i] != nil {
				p.ws(" = ")
				p.expr(it.Init[i], 0)
			}
		}
		p.ws(";\n")
	case *ast.ParamDecl:
		p.indent(1)
		if it.Local {
			p.ws("localparam ")
		} else {
			p.ws("parameter ")
		}
		if it.Range != nil {
			p.rng(it.Range)
			p.ws(" ")
		}
		p.ws(it.Name)
		p.ws(" = ")
		p.expr(it.Value, 0)
		p.ws(";\n")
	case *ast.ContAssign:
		p.indent(1)
		p.ws("assign ")
		p.expr(it.LHS, 0)
		p.ws(" = ")
		p.expr(it.RHS, 0)
		p.ws(";\n")
	case *ast.Always:
		p.indent(1)
		p.ws("always @(")
		if it.Star {
			p.ws("*")
		} else {
			for i, ev := range it.Events {
				if i > 0 {
					p.ws(" or ")
				}
				switch ev.Edge {
				case ast.EdgePos:
					p.ws("posedge ")
				case ast.EdgeNeg:
					p.ws("negedge ")
				}
				p.expr(ev.Sig, 0)
			}
		}
		p.ws(")")
		p.bodyAfterHeader(it.Body)
	case *ast.Initial:
		p.indent(1)
		p.ws("initial")
		p.bodyAfterHeader(it.Body)
	case *ast.Instance:
		p.indent(1)
		p.ws(it.ModName)
		if len(it.ParamsBy) > 0 {
			p.ws(" #(")
			p.conns(it.ParamsBy)
			p.ws(")")
		}
		p.ws(" ")
		p.ws(it.Name)
		p.ws(" (")
		p.conns(it.Conns)
		p.ws(");\n")
	}
}

func (p *printer) conns(conns []ast.PortConn) {
	for i, c := range conns {
		if i > 0 {
			p.ws(", ")
		}
		if c.Name != "" {
			p.ws(".")
			p.ws(c.Name)
			p.ws("(")
			if c.Expr != nil {
				p.expr(c.Expr, 0)
			}
			p.ws(")")
		} else {
			p.expr(c.Expr, 0)
		}
	}
}

// bodyAfterHeader prints a statement that follows an always/initial header,
// putting `begin` on the same line.
func (p *printer) bodyAfterHeader(s ast.Stmt) {
	if blk, ok := s.(*ast.Block); ok {
		p.ws(" begin")
		if blk.Name != "" {
			p.ws(" : ")
			p.ws(blk.Name)
		}
		p.ws("\n")
		for _, sub := range blk.Stmts {
			p.stmt(sub, 2)
		}
		p.indent(1)
		p.ws("end\n")
		return
	}
	p.ws("\n")
	p.stmt(s, 2)
}

func (p *printer) stmt(s ast.Stmt, depth int) {
	switch st := s.(type) {
	case *ast.Block:
		p.indent(depth)
		p.ws("begin")
		if st.Name != "" {
			p.ws(" : ")
			p.ws(st.Name)
		}
		p.ws("\n")
		for _, sub := range st.Stmts {
			p.stmt(sub, depth+1)
		}
		p.indent(depth)
		p.ws("end\n")
	case *ast.AssignStmt:
		p.indent(depth)
		p.expr(st.LHS, 0)
		if st.Blocking {
			p.ws(" = ")
		} else {
			p.ws(" <= ")
		}
		p.expr(st.RHS, 0)
		p.ws(";\n")
	case *ast.If:
		p.indent(depth)
		p.ifChain(st, depth)
	case *ast.Case:
		p.indent(depth)
		p.ws(st.Kind.String())
		p.ws(" (")
		p.expr(st.Subject, 0)
		p.ws(")\n")
		for _, item := range st.Items {
			p.indent(depth + 1)
			if item.Labels == nil {
				p.ws("default:")
			} else {
				for i, l := range item.Labels {
					if i > 0 {
						p.ws(", ")
					}
					p.expr(l, 0)
				}
				p.ws(":")
			}
			if blk, ok := item.Body.(*ast.Block); ok && len(blk.Stmts) != 1 {
				p.ws("\n")
				p.stmt(item.Body, depth+2)
			} else if ok && len(blk.Stmts) == 1 {
				p.ws(" ")
				p.inlineStmt(blk.Stmts[0])
			} else {
				p.ws(" ")
				p.inlineStmt(item.Body)
			}
		}
		p.indent(depth)
		p.ws("endcase\n")
	case *ast.For:
		p.indent(depth)
		p.ws("for (")
		p.expr(st.Init.LHS, 0)
		p.ws(" = ")
		p.expr(st.Init.RHS, 0)
		p.ws("; ")
		p.expr(st.Cond, 0)
		p.ws("; ")
		p.expr(st.Step.LHS, 0)
		p.ws(" = ")
		p.expr(st.Step.RHS, 0)
		p.ws(")\n")
		p.stmt(st.Body, depth+1)
	}
}

// inlineStmt prints s at depth 0 on the current line, with its trailing
// newlines collapsed to one.
func (p *printer) inlineStmt(s ast.Stmt) {
	start := len(p.b)
	p.stmt(s, 0)
	end := len(p.b)
	for end > start && p.b[end-1] == '\n' {
		end--
	}
	p.b = append(p.b[:end], '\n')
}

// ifChain prints if/else-if chains without extra indentation pyramids.
// The caller has already printed the indent for the `if` keyword.
func (p *printer) ifChain(st *ast.If, depth int) {
	p.ws("if (")
	p.expr(st.Cond, 0)
	p.ws(")")
	p.branch(st.Then, depth)
	if st.Else != nil {
		p.indent(depth)
		p.ws("else")
		if elif, ok := st.Else.(*ast.If); ok {
			p.ws(" ")
			p.ifChain(elif, depth)
			return
		}
		p.branch(st.Else, depth)
	}
}

// branch prints the then/else body of an if, inlining blocks.
func (p *printer) branch(s ast.Stmt, depth int) {
	if blk, ok := s.(*ast.Block); ok {
		p.ws(" begin\n")
		for _, sub := range blk.Stmts {
			p.stmt(sub, depth+1)
		}
		p.indent(depth)
		p.ws("end\n")
		return
	}
	p.ws("\n")
	p.stmt(s, depth+1)
}

// Operator precedence used to decide parenthesization; mirrors the parser's
// table.
func exprPrec(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.Binary:
		switch x.Op {
		case ast.Mul, ast.Div, ast.Mod:
			return 10
		case ast.Add, ast.Sub:
			return 9
		case ast.Shl, ast.Shr, ast.AShl, ast.AShr:
			return 8
		case ast.Lt, ast.Leq, ast.Gt, ast.Geq:
			return 7
		case ast.Eq, ast.Neq, ast.CaseEq, ast.CaseNeq:
			return 6
		case ast.BitAnd:
			return 5
		case ast.BitXor, ast.BitXnor:
			return 4
		case ast.BitOr:
			return 3
		case ast.LogAnd:
			return 2
		case ast.LogOr:
			return 1
		}
	case *ast.Ternary:
		return 0
	case *ast.Unary:
		return 11
	}
	return 12 // primary
}

func (p *printer) expr(e ast.Expr, parentPrec int) {
	prec := exprPrec(e)
	paren := prec < parentPrec
	if paren {
		p.ws("(")
	}
	switch x := e.(type) {
	case *ast.Ident:
		p.ws(x.Name)
	case *ast.Number:
		p.ws(x.Text)
	case *ast.Unary:
		p.ws(x.Op.String())
		// Parenthesize nested unary/binary operands of reductions for clarity.
		p.expr(x.X, 11+1)
	case *ast.Binary:
		p.expr(x.X, prec)
		p.ws(" ")
		p.ws(x.Op.String())
		p.ws(" ")
		p.expr(x.Y, prec+1)
	case *ast.Ternary:
		p.expr(x.Cond, 1)
		p.ws(" ? ")
		p.expr(x.Then, 0)
		p.ws(" : ")
		p.expr(x.Else, 0)
	case *ast.Concat:
		p.ws("{")
		for i, part := range x.Parts {
			if i > 0 {
				p.ws(", ")
			}
			p.expr(part, 0)
		}
		p.ws("}")
	case *ast.Repl:
		p.ws("{")
		p.expr(x.Count, 12)
		p.ws("{")
		p.expr(x.Value, 0)
		p.ws("}}")
	case *ast.Index:
		p.expr(x.X, 12)
		p.ws("[")
		p.expr(x.Idx, 0)
		p.ws("]")
	case *ast.PartSel:
		p.expr(x.X, 12)
		p.ws("[")
		p.expr(x.A, 0)
		switch x.Kind {
		case ast.SelPlus:
			p.ws(" +: ")
		case ast.SelMinus:
			p.ws(" -: ")
		default:
			p.ws(":")
		}
		p.expr(x.B, 0)
		p.ws("]")
	}
	if paren {
		p.ws(")")
	}
}
