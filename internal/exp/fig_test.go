package exp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/llm"
)

// smallTasks picks a spread of tasks for fast experiment tests.
func smallTasks(t *testing.T) []eval.Task {
	t.Helper()
	all := eval.Suite()
	idx := []int{0, 10, 25, 40, 55, 70, 85, 95, 110, 125, 140, 150}
	out := make([]eval.Task, 0, len(idx))
	for _, i := range idx {
		out = append(out, all[i])
	}
	return out
}

func TestRunFig3ShapesAndDeterminism(t *testing.T) {
	cfg := Fig3Config{
		Models:  []string{"deepseek-r1", "o3-mini-medium"},
		Tasks:   smallTasks(t),
		Samples: 30,
		Bins:    5,
		Seed:    11,
	}
	res, err := RunFig3(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(res.Series))
	}
	for _, s := range res.Series {
		if s.Total != len(cfg.Tasks)*cfg.Samples {
			t.Errorf("%s: total=%d, want %d", s.Model, s.Total, len(cfg.Tasks)*cfg.Samples)
		}
		kept := 0
		for _, b := range s.Bins {
			kept += b.Count
			if b.PassRate < 0 || b.PassRate > 1 {
				t.Errorf("%s: bin pass rate %v out of range", s.Model, b.PassRate)
			}
		}
		if kept+s.Dropped != s.Total {
			t.Errorf("%s: kept %d + dropped %d != total %d", s.Model, kept, s.Dropped, s.Total)
		}
	}

	// Deepseek (monotone curve) must show a falling trend: first-bin pass
	// rate above last-bin pass rate.
	ds := res.Series[0]
	first, last := ds.Bins[0], ds.Bins[len(ds.Bins)-1]
	if first.Count > 0 && last.Count > 0 && first.PassRate <= last.PassRate {
		t.Errorf("deepseek pass rate not decreasing: first=%v last=%v", first.PassRate, last.PassRate)
	}

	res2, err := RunFig3(context.Background(), cfg)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	for i := range res.Series {
		if res.Series[i].Total != res2.Series[i].Total || res.Series[i].Dropped != res2.Series[i].Dropped {
			t.Errorf("series %d not deterministic", i)
		}
		for j := range res.Series[i].Bins {
			if res.Series[i].Bins[j] != res2.Series[i].Bins[j] {
				t.Errorf("series %d bin %d not deterministic", i, j)
			}
		}
	}
}

func TestRunFig4ShapeSmall(t *testing.T) {
	cfg := Fig4Config{
		Models:      []string{"deepseek-r1"},
		Tasks:       smallTasks(t),
		SampleSizes: []int{5, 20},
		Runs:        2,
		Seed:        13,
	}
	res, err := RunFig4(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 2 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	for _, p := range res.Series[0].Points {
		for name, s := range map[string]float64{
			"baseline": p.Baseline.Mean, "vrank": p.VRank.Mean, "vfocus": p.VFocus.Mean,
		} {
			if s < 0 || s > 1 {
				t.Errorf("n=%d %s mean %v out of range", p.N, name, s)
			}
		}
		// Selection frameworks should not trail the random baseline on
		// this seed spread.
		if p.VFocus.Mean < p.Baseline.Mean-0.10 {
			t.Errorf("n=%d vfocus %.3f well below baseline %.3f", p.N, p.VFocus.Mean, p.Baseline.Mean)
		}
	}
}

// TestRunFig4ClientErrorSurfaces checks the error path of the task-major
// schedule: a client factory that fails for one (task, run) pair must fail
// the whole run with that error and no partial result. A second planted
// failure later in (n, run, task) order must not win, however the workers
// interleave.
func TestRunFig4ClientErrorSurfaces(t *testing.T) {
	tasks := smallTasks(t)[:4]
	const seed = 21
	type pair struct {
		run  int64
		task string
	}
	errFirst := errors.New("planted client failure (run 0)")
	errLater := errors.New("planted client failure (run 1)")
	planted := map[pair]error{
		{0, tasks[3].ID}: errFirst,
		{1, tasks[0].ID}: errLater,
	}
	var mints atomic.Int64
	factory := func(model string, s int64, ts []eval.Task) (llm.Client, error) {
		mints.Add(1)
		if err := planted[pair{(s - seed) / 1009, ts[0].ID}]; err != nil {
			return nil, err
		}
		profile, err := llm.ProfileByName(model)
		if err != nil {
			return nil, err
		}
		return llm.NewSimClient(profile, s, ts)
	}
	cfg := Fig4Config{
		Models:      []string{"deepseek-r1", "qwq-32b"},
		Tasks:       tasks,
		SampleSizes: []int{5, 10},
		Runs:        2,
		Seed:        seed,
		Workers:     3,
		NewClient:   factory,
	}
	for i := 0; i < 3; i++ {
		mints.Store(0)
		res, err := RunFig4(context.Background(), cfg)
		if !errors.Is(err, errFirst) {
			t.Fatalf("RunFig4 error = %v, want %v", err, errFirst)
		}
		if res != nil {
			t.Fatalf("RunFig4 returned a partial result alongside its error: %+v", res)
		}
		// The first model fails, so only its (run, task) jobs mint clients.
		if got, want := mints.Load(), int64(cfg.Runs*len(tasks)); got != want {
			t.Errorf("factory called %d times, want %d (one per (run, task))", got, want)
		}
	}
}

// TestRunFig4CancelledContext checks that a cancelled run stops early and
// reports the cancellation instead of a result.
func TestRunFig4CancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunFig4(ctx, Fig4Config{
		Models:      []string{"deepseek-r1"},
		Tasks:       smallTasks(t)[:3],
		SampleSizes: []int{5, 10},
		Runs:        1,
		Seed:        3,
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("RunFig4 on a cancelled context = (%v, %v), want (nil, context.Canceled)", res, err)
	}
}
