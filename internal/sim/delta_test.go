package sim

import (
	"fmt"
	"testing"

	"repro/internal/mutate"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
	"repro/internal/xrng"
)

func mustParse(t *testing.T, src string) *ast.Source {
	t.Helper()
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// moduleText renders a mutant module back to source; re-parsing it yields an
// independent AST, so the delta compile sees a genuinely fresh candidate.
func moduleText(t *testing.T, m *ast.Module) string {
	t.Helper()
	return string(printer.AppendModule(nil, m))
}

// deltaBaseSrc has several processes (two continuous assigns and a clocked
// block), so a single-site mutant leaves most process artifacts reusable.
const deltaBaseSrc = `
module top_module (
    input clk,
    input reset,
    input [7:0] a,
    input [7:0] b,
    output [7:0] s,
    output reg [7:0] acc,
    output [7:0] m
);
    assign s = a + b;
    always @(posedge clk) begin
        if (reset) acc <= 8'd0;
        else acc <= acc + a;
    end
    assign m = a & b;
endmodule
`

// driveCompare ticks both engines through the same random input sequence and
// compares every output after every cycle.
func driveCompare(t *testing.T, label string, da, db *Design, seed uint64) {
	t.Helper()
	ea, eb := da.AcquireEngine(), db.AcquireEngine()
	defer da.ReleaseEngine(ea)
	defer db.ReleaseEngine(eb)
	rng := xrng.New(seed)
	for cyc := 0; cyc < 24; cyc++ {
		reset := uint64(0)
		if cyc < 2 {
			reset = 1
		}
		a, b := rng.Uint64()&0xFF, rng.Uint64()&0xFF
		for _, en := range []*Engine{ea, eb} {
			if err := en.SetInputUint("reset", reset); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := en.SetInputUint("a", a); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := en.SetInputUint("b", b); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := en.Tick("clk"); err != nil {
				t.Fatalf("%s: tick: %v", label, err)
			}
		}
		for _, out := range []string{"s", "acc", "m"} {
			va, err := ea.Output(out)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			vb, err := eb.Output(out)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !va.Equal(vb) {
				t.Fatalf("%s: cycle %d output %s: scratch %s, delta %s", label, cyc, out, va, vb)
			}
		}
	}
}

// TestDeltaCompileIdenticalSourceReusesAll: delta-compiling the very design
// the base was compiled from must splice every process artifact (the module
// has three processes) and behave identically.
func TestDeltaCompileIdenticalSourceReusesAll(t *testing.T) {
	src := mustParse(t, deltaBaseSrc)
	base, err := Compile(src, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	// A re-parse yields a distinct AST with identical layout and processes.
	again := mustParse(t, deltaBaseSrc)
	d, err := CompileDelta(base, again, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.DeltaReused(); got != 3 {
		t.Fatalf("identical source reused %d process artifacts, want 3", got)
	}
	scratch, err := Compile(again, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	driveCompare(t, "identical", scratch, d, 5)
}

// TestDeltaCompileMutantsDifferential holds CompileDelta to Compile over a
// spine-mutant harness: every mutant of the base module must simulate
// identically whether lowered from scratch or spliced against the base, and
// mutants that keep the net layout must actually reuse unmutated processes.
func TestDeltaCompileMutantsDifferential(t *testing.T) {
	src := mustParse(t, deltaBaseSrc)
	base, err := Compile(src, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	mod := src.FindModule("top_module")
	if mod == nil {
		t.Fatal("no top_module")
	}
	rng := xrng.New(77)
	reusedSome := false
	tried := 0
	for trial := 0; trial < 24; trial++ {
		mut, desc := mutate.Semantic(mod, rng, mutate.Config{Count: 1})
		if mut == nil {
			continue
		}
		tried++
		label := fmt.Sprintf("trial %d (%v)", trial, desc)
		mutSrc := mustParse(t, moduleText(t, mut))
		scratch, serr := Compile(mutSrc, "top_module")
		delta, derr := CompileDelta(base, mutSrc, "top_module")
		if (serr == nil) != (derr == nil) {
			t.Fatalf("%s: compile error divergence: scratch=%v delta=%v", label, serr, derr)
		}
		if serr != nil {
			continue
		}
		if delta.DeltaReused() > 0 {
			reusedSome = true
		}
		driveCompare(t, label, scratch, delta, uint64(100+trial))
	}
	if tried == 0 {
		t.Fatal("mutation harness produced no mutants")
	}
	if !reusedSome {
		t.Error("no mutant reused any process artifact; delta path never engaged")
	}
}

// TestDeltaCompileLayoutMismatchFallsBack: a base from an unrelated module
// (different nets) must not contribute artifacts — the delta compile
// degrades to a full lowering with identical results.
func TestDeltaCompileLayoutMismatchFallsBack(t *testing.T) {
	const otherSrc = `
module top_module (
    input [3:0] x,
    output [3:0] y
);
    assign y = ~x;
endmodule
`
	base, err := Compile(mustParse(t, otherSrc), "top_module")
	if err != nil {
		t.Fatal(err)
	}
	src := mustParse(t, deltaBaseSrc)
	d, err := CompileDelta(base, src, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.DeltaReused(); got != 0 {
		t.Fatalf("layout-mismatched base reused %d artifacts, want 0", got)
	}
	scratch, err := Compile(src, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	driveCompare(t, "mismatch", scratch, d, 9)
}
