package mutate

import (
	"repro/internal/xrng"
	"testing"

	"repro/internal/eval"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
	"repro/internal/verilog/sem"
)

func goldenModule(t *testing.T, task eval.Task) (*ast.Source, *ast.Module) {
	t.Helper()
	src, err := parser.Parse(task.Golden)
	if err != nil {
		t.Fatalf("%s: %v", task.ID, err)
	}
	return src, src.FindModule(eval.TopModule)
}

// replaceTop reprints a source with the top module swapped for mod.
func replaceTop(src *ast.Source, mod *ast.Module) string {
	out := ""
	for _, m := range src.Modules {
		if m.Name == mod.Name {
			out += string(printer.AppendModule(nil, mod))
		} else {
			out += string(printer.AppendModule(nil, m))
		}
		out += "\n"
	}
	return out
}

// TestEveryGoldenHasSites: the mutation engine must find semantic sites in
// every benchmark design, otherwise the simulated LLM could not produce
// wrong candidates for it.
func TestEveryGoldenHasSites(t *testing.T) {
	for _, task := range eval.Suite() {
		_, top := goldenModule(t, task)
		sites := CollectSites(ast.CloneModule(top))
		if len(sites) == 0 {
			t.Errorf("%s: no mutation sites", task.ID)
		}
	}
}

// TestSemanticMutantsStayValid: mutants must still parse and pass semantic
// checks (they are realistic wrong code, not garbage).
func TestSemanticMutantsStayValid(t *testing.T) {
	tasks := eval.Suite()
	rng := xrng.New(5)
	for _, task := range tasks {
		src, top := goldenModule(t, task)
		for trial := 0; trial < 3; trial++ {
			mutant, applied := Semantic(top, rng, Config{Count: 1 + trial%2})
			if mutant == nil {
				t.Fatalf("%s: no mutant", task.ID)
			}
			if len(applied) == 0 {
				t.Fatalf("%s: mutant without applied ops", task.ID)
			}
			text := replaceTop(src, mutant)
			re, err := parser.Parse(text)
			if err != nil {
				t.Fatalf("%s trial %d: mutant does not parse: %v\nops=%v\n%s",
					task.ID, trial, err, applied, text)
			}
			if res := sem.Check(re); res.HasErrors() {
				t.Fatalf("%s trial %d: mutant fails sem: %v\nops=%v",
					task.ID, trial, res.Err(), applied)
			}
		}
	}
}

// TestSemanticMutantsMostlyChangeBehavior: across the suite, a large
// majority of single-bug mutants must behave differently from the golden
// under the dense verification stimulus (equivalent mutants are tolerated
// but must be rare).
func TestSemanticMutantsMostlyChangeBehavior(t *testing.T) {
	tasks := eval.Suite()
	rng := xrng.New(9)
	changed, total := 0, 0
	for i, task := range tasks {
		if i%3 != 0 {
			continue // subsample for speed
		}
		src, top := goldenModule(t, task)
		gen := testbench.NewGenerator(3)
		st := gen.Verification(task.Ifc)
		goldenTrace := testbench.Run(src, eval.TopModule, st)
		if goldenTrace.Err != nil {
			t.Fatalf("%s: golden trace: %v", task.ID, goldenTrace.Err)
		}
		for trial := 0; trial < 4; trial++ {
			mutant, _ := Semantic(top, rng, Config{Count: 1})
			text := replaceTop(src, mutant)
			re, err := parser.Parse(text)
			if err != nil {
				t.Fatalf("%s: %v", task.ID, err)
			}
			tr := testbench.Run(re, eval.TopModule, st)
			total++
			if tr.Err != nil || !testbench.Agrees(tr, goldenTrace) {
				changed++
			}
		}
	}
	frac := float64(changed) / float64(total)
	if frac < 0.70 {
		t.Errorf("only %.0f%% of mutants (%d/%d) changed behavior; bug injection too weak",
			100*frac, changed, total)
	}
}

// TestCosmeticPreservesBehavior is the core invariant behind clustering:
// cosmetic rewrites of a design must produce identical traces.
func TestCosmeticPreservesBehavior(t *testing.T) {
	tasks := eval.Suite()
	rng := xrng.New(77)
	for i, task := range tasks {
		if i%2 != 0 {
			continue
		}
		src, top := goldenModule(t, task)
		gen := testbench.NewGenerator(13)
		st := gen.Verification(task.Ifc)
		goldenTrace := testbench.Run(src, eval.TopModule, st)
		if goldenTrace.Err != nil {
			t.Fatalf("%s: %v", task.ID, goldenTrace.Err)
		}
		for trial := 0; trial < 3; trial++ {
			variant := Cosmetic(top, rng)
			text := replaceTop(src, variant)
			re, err := parser.Parse(text)
			if err != nil {
				t.Fatalf("%s: cosmetic variant does not parse: %v\n%s", task.ID, err, text)
			}
			tr := testbench.Run(re, eval.TopModule, st)
			if tr.Err != nil {
				t.Fatalf("%s: cosmetic variant fails simulation: %v\n%s", task.ID, tr.Err, text)
			}
			if !testbench.Agrees(tr, goldenTrace) {
				t.Errorf("%s trial %d: cosmetic rewrite changed behavior\n%s", task.ID, trial, text)
			}
		}
	}
}

// TestCanonicalMutationIsShared: two candidates using the same canonical
// seed must apply the same mutation and therefore print identical behavior.
func TestCanonicalMutationIsShared(t *testing.T) {
	task := eval.Suite()[90] // a sequential task with plenty of sites
	src, top := goldenModule(t, task)
	cfg := Config{Count: 1, CanonicalSeed: 12345, CanonicalProb: 1}
	m1, ops1 := Semantic(top, xrng.New(1), cfg)
	m2, ops2 := Semantic(top, xrng.New(2), cfg)
	if len(ops1) != 1 || len(ops2) != 1 || ops1[0] != ops2[0] {
		t.Fatalf("canonical ops differ: %v vs %v", ops1, ops2)
	}
	gen := testbench.NewGenerator(3)
	st := gen.Verification(task.Ifc)
	t1, _ := parser.Parse(replaceTop(src, m1))
	t2, _ := parser.Parse(replaceTop(src, m2))
	tr1 := testbench.Run(t1, eval.TopModule, st)
	tr2 := testbench.Run(t2, eval.TopModule, st)
	if !testbench.Agrees(tr1, tr2) {
		t.Error("canonical mutants disagree behaviorally")
	}
}

func TestSemanticDoesNotMutateOriginal(t *testing.T) {
	task := eval.Suite()[0]
	_, top := goldenModule(t, task)
	before := string(printer.AppendModule(nil, top))
	rng := xrng.New(4)
	for i := 0; i < 5; i++ {
		Semantic(top, rng, Config{Count: 2})
		Cosmetic(top, rng)
	}
	if string(printer.AppendModule(nil, top)) != before {
		t.Error("mutation touched the original module")
	}
}

func TestReorderMatters(t *testing.T) {
	mk := func(lhs string, blocking bool) ast.Stmt {
		return &ast.AssignStmt{LHS: &ast.Ident{Name: lhs}, RHS: &ast.Number{Text: "1"}, Blocking: blocking}
	}
	if reorderMatters(mk("a", false), mk("b", false)) {
		t.Error("independent NBA pair should not matter")
	}
	if !reorderMatters(mk("a", false), mk("a", false)) {
		t.Error("same-target NBA pair matters")
	}
	if !reorderMatters(mk("a", true), mk("b", false)) {
		t.Error("blocking + NBA matters")
	}
	if !reorderMatters(&ast.Block{}, mk("a", false)) {
		t.Error("non-assign statements matter")
	}
}
