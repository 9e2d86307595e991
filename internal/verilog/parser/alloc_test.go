package parser_test

import (
	"runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/verilog/parser"
)

// parseAllocBudget caps the bytes one Parse pass over the golden suite may
// allocate. Parsing from a whole-input token slice cost about 1.50 MB per
// pass; streaming tokens from the lexer costs about 0.38 MB.
const parseAllocBudget = 600_000

// TestParseAllocBudget keeps the parser streaming: building a token slice
// per parse again would blow the budget.
func TestParseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation accounting")
	}
	suite := eval.Suite()
	pass := func() {
		for _, task := range suite {
			if _, err := parser.Parse(task.Golden); err != nil {
				t.Fatalf("%s: %v", task.ID, err)
			}
		}
	}
	pass() // warm any lazily built tables
	const passes = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	perPass := (after.TotalAlloc - before.TotalAlloc) / passes
	t.Logf("one pass over %d goldens allocates %d B", len(suite), perPass)
	if perPass > parseAllocBudget {
		t.Fatalf("one Parse pass over the %d goldens allocates %d B, budget %d B", len(suite), perPass, parseAllocBudget)
	}
}
