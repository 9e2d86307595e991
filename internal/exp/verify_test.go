package exp

import (
	"errors"
	"strings"
	"sync"
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
			pool = append(pool, string(printer.AppendModule(nil, m)))
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
		gp, err := ref.prepare(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		st, golden := gp.st, gp.golden
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

// TestOraclePrepareConcurrent drives one oracle from several goroutines,
// each walking the golden tasks in a different order, so batches prepare
// different tasks at the same time and race to prepare the same one. Every
// verdict must equal a sequential oracle's, and a golden that cannot be
// prepared must fail every concurrent caller.
func TestOraclePrepareConcurrent(t *testing.T) {
	tasks := goldenTasks()
	rng := xrng.New(61)
	pools := make([][]string, len(tasks))
	want := make([][]bool, len(tasks))
	seq := NewOracle(tasks, 3)
	for i, task := range tasks {
		pools[i], _, _ = verifyPool(t, task, rng)
		var err error
		if want[i], err = seq.VerifyBatch(task.ID, pools[i]); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 4
	o := NewOracle(tasks, 3)
	got := make([][][]bool, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([][]bool, len(tasks))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range tasks {
				i := (j + w) % len(tasks)
				for lo := 0; lo < len(pools[i]); lo += 8 {
					v, err := o.VerifyBatch(tasks[i].ID, pools[i][lo:min(lo+8, len(pools[i]))])
					if err != nil {
						errs[w] = err
						return
					}
					got[w][i] = append(got[w][i], v...)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i, task := range tasks {
			for k := range want[i] {
				if got[w][i][k] != want[i][k] {
					t.Fatalf("worker %d, %s: candidate %d verdict %v, sequential oracle says %v",
						w, task.ID, k, got[w][i][k], want[i][k])
				}
			}
		}
	}

	broken := tasks[0]
	broken.Golden = "not verilog at all"
	bo := NewOracle([]eval.Task{broken}, 3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = bo.Verify(broken.ID, tasks[0].Golden)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, ErrExperiment) {
			t.Fatalf("worker %d: broken golden returned %v, want ErrExperiment", w, err)
		}
	}
}
