package parser

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/verilog/lexer"
	"repro/internal/verilog/printer"
)

// The corpus under testdata/errors pins what Parse reports for valid
// designs, lexical errors, parser errors and both mixed, including more
// than maxErrors parser errors ahead of a late lexical one. Each NAME.golden
// was captured from the parser that took the lexer's whole token slice
// before parsing, so it is the referee for the streaming parser: lexical
// errors must still come first, in source order, and count toward the cap.
// There is deliberately no update flag: regenerating the goldens from the
// code under test would prove nothing.

// renderParse records everything observable about one parse: Parse's error
// string, every diagnostic in order, and the printed (possibly partial) AST.
func renderParse(src string) string {
	s, err := Parse(src)
	_, errs := parse(src)
	var b strings.Builder
	b.WriteString("-- error --\n")
	if err != nil {
		b.WriteString(err.Error())
	} else {
		b.WriteString("<nil>")
	}
	b.WriteString("\n-- diagnostics --\n")
	for _, e := range errs {
		b.WriteString(e.Error())
		b.WriteByte('\n')
	}
	b.WriteString("-- printed --\n")
	b.WriteString(printer.Print(s))
	return b.String()
}

func goldenInputs(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "errors", "*.v"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus inputs under testdata/errors (%v)", err)
	}
	return paths
}

func TestParseErrorsGolden(t *testing.T) {
	for _, path := range goldenInputs(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(strings.TrimSuffix(path, ".v") + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if got := renderParse(string(src)); got != string(want) {
			t.Errorf("%s: parse differs from the golden\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
		}
	}
}

// FuzzParseLexErrorsFirst pins the error order the streaming parser must
// keep: the lexer's errors over the whole input, in order, lead the
// diagnostic list (all of them up to the cap), wherever the parser stopped.
func FuzzParseLexErrorsFirst(f *testing.F) {
	for _, path := range goldenInputs(f) {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		lx := lexer.New(src)
		lx.All()
		want := lx.Errors()
		_, got := parse(src)
		n := min(len(want), maxErrors)
		if len(got) < n {
			t.Fatalf("%d diagnostics, want at least the %d lexical ones first", len(got), n)
		}
		for i := 0; i < n; i++ {
			if got[i].Pos != want[i].Pos || got[i].Msg != want[i].Msg {
				t.Fatalf("diagnostic %d = %v, want lexical error %v", i, got[i], want[i])
			}
		}
	})
}
