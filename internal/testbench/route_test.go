package testbench

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/verilog/ast"
)

// The compiled backend refuses designs without a static width bound with
// sim.ErrNotCompilable; the testbench must then run them whole on the
// interpreter, so BackendCompiled results stay bit-identical to
// BackendInterpreter for every input.

// routeDynSelect has a dynamic [a:b] part-select (non-constant bounds).
const routeDynSelect = `
module top_module (
    input [15:0] a,
    input [7:0] b,
    output [15:0] y
);
    wire [7:0] hi = b[2:0] + 8'd7;
    assign y = a[hi:b[2:0]];
endmodule
`

// routeWideRepl replicates b into a 131072-bit intermediate, past the
// register file's 2^16-bit slot cap.
const routeWideRepl = `
module top_module (
    input [15:0] a,
    input [7:0] b,
    output [15:0] y
);
    assign y = {16384{b}} ^ a;
endmodule
`

// routeNeighbours compile normally and share the interface above.
var routeNeighbours = []string{`
module top_module (
    input [15:0] a,
    input [7:0] b,
    output [15:0] y
);
    assign y = a ^ {8'd0, b};
endmodule
`, `
module top_module (
    input [15:0] a,
    input [7:0] b,
    output [15:0] y
);
    assign y = a + {b, b};
endmodule
`}

func routeIfc() Interface {
	return Interface{
		Inputs:  []PortSpec{{Name: "a", Width: 16}, {Name: "b", Width: 8}},
		Outputs: []PortSpec{{Name: "y", Width: 16}},
	}
}

// TestNotCompilableRoutesToInterpreter: solo fingerprint runs and printed
// traces of refused designs on BackendCompiled equal BackendInterpreter's.
func TestNotCompilableRoutesToInterpreter(t *testing.T) {
	st := NewGenerator(11).Ranking(routeIfc())
	for _, tc := range []struct{ name, code string }{
		{"dynamic-select", routeDynSelect},
		{"wide-repl", routeWideRepl},
	} {
		src := mustParse(t, tc.code)
		if _, err := sim.CompileCached(src, "top_module"); !errors.Is(err, sim.ErrNotCompilable) {
			t.Fatalf("%s: CompileCached: got %v, want sim.ErrNotCompilable", tc.name, err)
		}
		want := RunFingerprint(src, "top_module", st, BackendInterpreter)
		if want.Err != nil {
			t.Fatalf("%s: interpreter run failed: %v", tc.name, want.Err)
		}
		fpTraceEqual(t, tc.name, RunFingerprint(src, "top_module", st, BackendCompiled), want)
		got := RunBackend(src, "top_module", st, BackendCompiled)
		ref := RunBackend(src, "top_module", st, BackendInterpreter)
		if got.Err != nil || got.String() != ref.String() {
			t.Fatalf("%s: compiled-backend trace differs from the interpreter's (err %v)", tc.name, got.Err)
		}
	}
}

// TestNotCompilableInGangMatchesSolo mixes refused designs into gang batches
// of compilable neighbours: the refused lanes equal their interpreter runs,
// and every neighbour equals its own solo compiled run.
func TestNotCompilableInGangMatchesSolo(t *testing.T) {
	dyn, wide := mustParse(t, routeDynSelect), mustParse(t, routeWideRepl)
	n0, n1 := mustParse(t, routeNeighbours[0]), mustParse(t, routeNeighbours[1])
	srcs := []*ast.Source{n0, dyn, n1, wide, n0 /* duplicate pointer */}
	refused := map[int]bool{1: true, 3: true}
	base, err := sim.CompileCached(n0, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name string
		d    *sim.Design
	}{{"nobase", nil}, {"neighbourbase", base}} {
		// Fresh stimulus per subtest: a fresh pointer misses the
		// (design, stimulus) memo, so the gang really runs.
		st := NewGenerator(13).Ranking(routeIfc())
		out := RunFingerprintGang(srcs, "top_module", st, BackendCompiled, b.d)
		if len(out) != len(srcs) {
			t.Fatalf("%s: result count %d, want %d", b.name, len(out), len(srcs))
		}
		for i, src := range srcs {
			backend := BackendCompiled
			if refused[i] {
				backend = BackendInterpreter
			}
			fpTraceEqual(t, fmt.Sprintf("%s lane %d", b.name, i), out[i],
				runFingerprintSolo(src, "top_module", st, backend))
		}
	}
}

// TestNotCompilableCompileCacheHit: a refusal is cached like any other
// compile error, so the second lookup of the same source is a hit that
// returns the same ErrNotCompilable without lowering the design again.
func TestNotCompilableCompileCacheHit(t *testing.T) {
	src := mustParse(t, routeDynSelect)
	_, first := sim.CompileCached(src, "top_module")
	hits, misses := sim.DefaultCache.Stats()
	_, second := sim.CompileCached(src, "top_module")
	hits2, misses2 := sim.DefaultCache.Stats()
	if !errors.Is(second, sim.ErrNotCompilable) || second != first {
		t.Fatalf("second lookup returned %v, want the cached %v", second, first)
	}
	if hits2 != hits+1 || misses2 != misses {
		t.Fatalf("second lookup: hits %d->%d, misses %d->%d; want one hit, no miss",
			hits, hits2, misses, misses2)
	}
}
