package exp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/mutate"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
	"repro/internal/xrng"
)

// intoTop splices body into the golden's top module, just before its
// endmodule.
func intoTop(t *testing.T, golden, body string) string {
	t.Helper()
	start := strings.Index(golden, "module "+eval.TopModule)
	if start < 0 {
		t.Fatalf("golden has no %s module", eval.TopModule)
	}
	at := start + strings.Index(golden[start:], "endmodule")
	return golden[:at] + body + golden[at:]
}

// verifyPool is one task's verification pool: the golden, a textual
// duplicate and a cosmetic variant of it, semantic mutants, garbage text, a
// wrong top module, a golden the compiler refuses (a dynamic part-select
// makes it run on the interpreter) and a golden with a non-converging
// combinational loop.
func verifyPool(t *testing.T, task eval.Task, rng *xrng.Rand) (pool []string, dynSelect, loop string) {
	t.Helper()
	dynSelect = intoTop(t, task.Golden, `
    wire [7:0] vf_dyn_lo = 8'd1;
    wire [7:0] vf_dyn_hi = vf_dyn_lo + 8'd2;
    wire [15:0] vf_dyn_src = 16'hbeef;
    wire [15:0] vf_dyn = vf_dyn_src[vf_dyn_hi:vf_dyn_lo];
`)
	// The ring holds at a known 0 while the first input is low and
	// oscillates once it rises (an X-valued ring would settle at X).
	in := task.Ifc.Inputs[0].Name
	loop = intoTop(t, task.Golden, `
    wire vf_osc_a, vf_osc_b;
    assign vf_osc_a = (|`+in+`) ? ~vf_osc_b : 1'b0;
    assign vf_osc_b = vf_osc_a;
`)
	pool = []string{task.Golden, task.Golden, "// cosmetic\n" + task.Golden}
	src, err := parser.Parse(task.Golden)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if m, _ := mutate.Semantic(src.FindModule(eval.TopModule), rng, mutate.Config{Count: 1}); m != nil {
			pool = append(pool, printer.PrintModule(m))
		}
	}
	pool = append(pool,
		"not verilog at all",
		"module wrong_name (input a, output y);\nassign y = a;\nendmodule\n",
		dynSelect, loop, task.Golden)
	return pool, dynSelect, loop
}

// TestVerifyBatchMatchesFullTrace is the gate on early-exit verification:
// over the golden tasks, every VerifyBatch verdict must equal FPAgrees of
// the candidate's full trace against the golden's, at batch sizes 1, 8 and
// 64.
func TestVerifyBatchMatchesFullTrace(t *testing.T) {
	tasks := goldenTasks()
	rng := xrng.New(59)
	for _, task := range tasks {
		pool, dynSelect, loop := verifyPool(t, task, rng)
		ref := NewOracle(tasks, 3)
		st, golden, _, err := ref.prepare(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]bool, len(pool))
		nTrue := 0
		for i, code := range pool {
			src := mustParse(code)
			if src == nil {
				continue
			}
			tr := testbench.RunFingerprint(src, eval.TopModule, st, testbench.BackendCompiled)
			want[i] = tr.Err == nil && testbench.FPAgrees(tr, golden)
			if want[i] {
				nTrue++
			}
			switch code {
			case dynSelect:
				if _, err := sim.CompileCached(src, eval.TopModule); !errors.Is(err, sim.ErrNotCompilable) {
					t.Fatalf("%s: dynamic-select golden compiled (%v); want sim.ErrNotCompilable", task.ID, err)
				}
			case loop:
				if tr.Err == nil {
					t.Fatalf("%s: looping golden ran cleanly", task.ID)
				}
			}
		}
		if nTrue == 0 || nTrue == len(pool) {
			t.Fatalf("%s: %d of %d candidates pass; want a mix", task.ID, nTrue, len(pool))
		}
		for _, size := range []int{1, 8, 64} {
			o := NewOracle(tasks, 3)
			for lo := 0; lo < len(pool); lo += size {
				hi := min(lo+size, len(pool))
				got, err := o.VerifyBatch(task.ID, pool[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range got {
					if v != want[lo+j] {
						t.Fatalf("%s size=%d: candidate %d verdict %v, full trace says %v\n%s",
							task.ID, size, lo+j, v, want[lo+j], pool[lo+j])
					}
				}
			}
		}
	}
}
