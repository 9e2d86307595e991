package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/parser"
)

// TestCanonicalKeyAllocBudget gates the cost of a cold CanonicalKey: the
// design is printed into a pooled buffer and hashed in place, so a key costs
// its hex digest and little else. Printing to a string first and copying it
// to bytes cost about 14 objects and 1,560 B per suite golden.
func TestCanonicalKeyAllocBudget(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race detector perturbs sync.Pool and allocation accounting")
	}
	const (
		maxObjects = 8
		maxBytes   = 500
	)
	suite := eval.Suite()
	srcs := make([]*ast.Source, 0, len(suite))
	for _, task := range suite {
		src, err := parser.Parse(task.Golden) // fresh ASTs: every key is a memo miss
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		srcs = append(srcs, src)
	}
	sim.ResetKeyMemo()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, src := range srcs {
		sim.CanonicalKey(src)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(srcs))
	objects := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("cold CanonicalKey: %.1f objects, %.0f B per golden", objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Fatalf("cold CanonicalKey allocates %.1f objects and %.0f B per golden; budget %d objects and %d B",
			objects, bytes, maxObjects, maxBytes)
	}
}
