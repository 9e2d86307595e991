package exp

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eval"
)

// The goldens under testdata/ were captured from the size-major Fig. 4
// driver and the per-sample Fig. 3 verification loop, before either was
// restructured, and Table I before the compiled backend's boxed fallback
// evaluator was deleted. They pin the rendered bytes, so a scheduling,
// batching or evaluator change that moves any rendered number fails here. There is deliberately
// no update flag: regenerating them from the code under test would prove
// nothing.

// goldenTasks is a small spread over both datasets (CMB and SEQ).
func goldenTasks() []eval.Task {
	all := eval.Suite()
	var out []eval.Task
	for _, i := range []int{3, 31, 62, 97, 129, 151} {
		out = append(out, all[i])
	}
	return out
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s: rendered output differs from the golden\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestFig4RenderGolden(t *testing.T) {
	res, err := RunFig4(context.Background(), Fig4Config{
		Models:      []string{"deepseek-r1", "qwq-32b"},
		Tasks:       goldenTasks(),
		SampleSizes: []int{5, 10, 20},
		Runs:        2,
		Seed:        17,
		Workers:     2,
	})
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	checkGolden(t, "fig4_render.golden", res.Render())
}

func TestFig3RenderGolden(t *testing.T) {
	res, err := RunFig3(context.Background(), Fig3Config{
		Models:  []string{"deepseek-r1", "o3-mini-medium"},
		Tasks:   goldenTasks(),
		Samples: 20,
		Bins:    5,
		Seed:    17,
		Workers: 2,
	})
	if err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	checkGolden(t, "fig3_render.golden", res.Render())
}

func TestTable1RenderGolden(t *testing.T) {
	res, err := RunTable1(context.Background(), Table1Config{
		Models:  []string{"deepseek-r1", "qwq-32b"},
		Tasks:   goldenTasks(),
		Samples: 20,
		Runs:    2,
		Seed:    17,
		Workers: 2,
	})
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	checkGolden(t, "table1_render.golden", res.Render())
}
