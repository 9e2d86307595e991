package exp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/eval"
)

// TestTable1WorkersEquivalence pins the acceptance criterion for the
// parallel ranking/driver pools: a reduced Table I must produce bit-equal
// rows and an identical rendering whether the task pool runs on one worker
// or many. With several runs per task, workers finish (task, run) jobs in
// any order; outcomes are aggregated in sorted (task, run) order, so the
// float sums inside MeanPassAtK see the same operands in the same order.
func TestTable1WorkersEquivalence(t *testing.T) {
	all := eval.Suite()
	var tasks []eval.Task
	for i := 0; i < len(all); i += 24 {
		tasks = append(tasks, all[i])
	}
	run := func(workers int) *Table1Result {
		res, err := RunTable1(context.Background(), Table1Config{
			Models:  []string{"qwq-32b"},
			Tasks:   tasks,
			Samples: 10,
			Runs:    3,
			Seed:    5,
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	r1 := run(1)
	rN := run(8)
	if len(r1.Rows) != len(rN.Rows) {
		t.Fatalf("row count: workers=1 %d, workers=8 %d", len(r1.Rows), len(rN.Rows))
	}
	bits := func(r Table1Row) [6]uint64 {
		return [6]uint64{
			math.Float64bits(r.BasePass1), math.Float64bits(r.BasePass2), math.Float64bits(r.BasePass3),
			math.Float64bits(r.VRank), math.Float64bits(r.PreVRank), math.Float64bits(r.VFocus),
		}
	}
	for i := range r1.Rows {
		a, b := r1.Rows[i], rN.Rows[i]
		if a.Model != b.Model || a.Dataset != b.Dataset || bits(a) != bits(b) {
			t.Fatalf("row %d diverges between Workers=1 and Workers=8\nw1: %+v\nw8: %+v", i, a, b)
		}
	}
	if g1, gN := r1.Render(), rN.Render(); g1 != gN {
		t.Fatalf("Render diverges between Workers=1 and Workers=8\nw1:\n%s\nw8:\n%s", g1, gN)
	}
}

// TestFig4WorkersEquivalence is the Fig. 4 counterpart: the task-major
// schedule (one job per (run, task), sizes largest first) must yield the
// same series on one worker as on many, since cells are aggregated in
// (n, run, task) order whichever worker filled them.
func TestFig4WorkersEquivalence(t *testing.T) {
	all := eval.Suite()
	var tasks []eval.Task
	for i := 5; i < len(all); i += 26 {
		tasks = append(tasks, all[i])
	}
	run := func(workers int) []Fig4Series {
		res, err := RunFig4(context.Background(), Fig4Config{
			Models:      []string{"o3-mini-high"},
			Tasks:       tasks,
			SampleSizes: []int{5, 15, 10},
			Runs:        2,
			Seed:        9,
			Workers:     workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Series
	}
	s1 := run(1)
	sN := run(8)
	if !reflect.DeepEqual(s1, sN) {
		t.Fatalf("Fig. 4 series diverge between Workers=1 and Workers=8\nw1: %+v\nw8: %+v", s1, sN)
	}
}
