package exp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/eval"
)

// TestTable1WorkersEquivalence pins the acceptance criterion for the
// parallel ranking/driver pools: a reduced Table I must produce identical
// rows whether the task pool runs on one worker or many (per-task outcomes
// are aggregated in sorted order, and per-pipeline ranking is deterministic
// by construction).
func TestTable1WorkersEquivalence(t *testing.T) {
	all := eval.Suite()
	var tasks []eval.Task
	for i := 0; i < len(all); i += 24 {
		tasks = append(tasks, all[i])
	}
	run := func(workers int) []Table1Row {
		res, err := RunTable1(context.Background(), Table1Config{
			Models:  []string{"qwq-32b"},
			Tasks:   tasks,
			Samples: 10,
			Runs:    1,
			Seed:    5,
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Rows
	}
	r1 := run(1)
	rN := run(8)
	if !reflect.DeepEqual(r1, rN) {
		t.Fatalf("Table I rows diverge between Workers=1 and Workers=8\nw1: %+v\nw8: %+v", r1, rN)
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
