package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/testbench"
)

// Fig4Config parameterizes the Fig. 4 reproduction: pass@1 versus the number
// of sampled candidates.
type Fig4Config struct {
	// Models to evaluate (paper: deepseek-r1, o3-mini-high, qwq-32b).
	Models []string
	// Tasks is the benchmark (defaults to the full suite).
	Tasks []eval.Task
	// SampleSizes are the n values (paper: 5,10,...,50).
	SampleSizes []int
	// Runs averages each point (paper: 10).
	Runs int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds task-level parallelism (defaults to core.DefaultWorkers()).
	Workers int
	// Backend selects the simulation engine (zero value: compiled).
	Backend testbench.Backend
	// LegacyTraces forces ranking and verification onto the retained
	// printed-trace path instead of streaming fingerprints.
	LegacyTraces bool
	// FPMemoCap sizes the process-wide fingerprint memo (the result
	// store's memory tier); zero keeps the current capacity.
	FPMemoCap int
	// NewClient, when non-nil, replaces llm.NewSimClient as the source of
	// per-(task, run) clients (HTTP backend or fixture replay).
	NewClient ClientFactory
	// LLMRetries overrides the pipeline transient-retry bound (zero keeps
	// the default, 4); see core.Config.LLMRetries.
	LLMRetries int
}

// Fig4Point is one (model, n) measurement: mean ± std over runs for the
// three series. Per the paper, the VFocus series excludes post-ranking
// refinement (its repeated cost is prohibitive), i.e. it is pre-ranking +
// ranking.
type Fig4Point struct {
	N        int
	Baseline metrics.Summary
	VRank    metrics.Summary
	VFocus   metrics.Summary
}

// Fig4Series is one model's curve set.
type Fig4Series struct {
	Model  string
	Points []Fig4Point
}

// Fig4Result is the full reproduction of Fig. 4.
type Fig4Result struct {
	Config Fig4Config
	Series []Fig4Series
}

// RunFig4 reproduces Fig. 4: pass@1 of Baseline, VRank and VFocus
// (pre-ranking + ranking) at each of cfg.SampleSizes candidates (default
// 5, 10, ..., 50), averaged over cfg.Runs repetitions with standard
// deviations. Models run one after another; within a model, (run, task)
// jobs share cfg.Workers goroutines (see runFig4Model). The first error in
// (model, n, run, task) order is returned, with no partial result.
func RunFig4(ctx context.Context, cfg Fig4Config) (*Fig4Result, error) {
	if len(cfg.Tasks) == 0 {
		cfg.Tasks = eval.Suite()
	}
	if len(cfg.SampleSizes) == 0 {
		cfg.SampleSizes = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}
	if cfg.Workers <= 0 {
		cfg.Workers = core.DefaultWorkers()
	}
	if len(cfg.Models) == 0 {
		cfg.Models = []string{"deepseek-r1", "o3-mini-high", "qwq-32b"}
	}
	oracle := NewOracle(cfg.Tasks, cfg.Seed+7)
	oracle.Backend = cfg.Backend
	oracle.LegacyTraces = cfg.LegacyTraces
	res := &Fig4Result{Config: cfg}
	for _, model := range cfg.Models {
		series, err := runFig4Model(ctx, cfg, oracle, model)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", model, err)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// fig4Cell is one (task, run, n) outcome.
type fig4Cell struct {
	baseline float64 // pass@1 estimator over the pool
	vrank    bool
	vfocus   bool
	err      error
}

// runFig4Model measures one model's curves. Work is scheduled task-major:
// a job is one (run, task) pair and walks that task's sample sizes largest
// first. Fig. 4's pools are prefixes of one another — each sample is fixed
// by (task, run, sample index) whatever n is, and the ranking stimulus does
// not depend on n — so the largest pool compiles, fingerprints and verifies
// every candidate once, and the smaller pools re-rank the same designs while
// the compile cache, the fingerprint memo and the oracle's verdicts still
// hold them. (A size-major walk touches tasks × n designs per pass, more
// than those caches keep, so each design was evicted before it recurred.)
// Cells are aggregated, and the first error is reported, in (n, run, task)
// order, so every float sum and the rendered output match a size-major walk.
func runFig4Model(ctx context.Context, cfg Fig4Config, oracle *Oracle, model string) (Fig4Series, error) {
	profile, err := llm.ProfileByName(model)
	if err != nil {
		return Fig4Series{}, err
	}
	cells := make([][][]fig4Cell, len(cfg.SampleSizes)) // [n][run][task]
	for ni := range cells {
		cells[ni] = make([][]fig4Cell, cfg.Runs)
		for run := range cells[ni] {
			cells[ni][run] = make([]fig4Cell, len(cfg.Tasks))
		}
	}
	largestFirst := make([]int, len(cfg.SampleSizes))
	for i := range largestFirst {
		largestFirst[i] = i
	}
	sort.SliceStable(largestFirst, func(a, b int) bool {
		return cfg.SampleSizes[largestFirst[a]] > cfg.SampleSizes[largestFirst[b]]
	})

	type job struct{ run, ti int }
	var wg sync.WaitGroup
	jobs := make(chan job)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				task := cfg.Tasks[j.ti]
				client, err := mintClient(cfg.NewClient, profile, cfg.Seed+int64(j.run)*1009, []eval.Task{task})
				for _, ni := range largestFirst {
					cell := &cells[ni][j.run][j.ti]
					switch {
					case err != nil:
						cell.err = err
					case ctx.Err() != nil:
						cell.err = ctx.Err()
					default:
						*cell = fig4Task(ctx, cfg, oracle, client, profile, task, j.run, cfg.SampleSizes[ni])
					}
				}
			}
		}()
	}
	for run := 0; run < cfg.Runs; run++ {
		for ti := range cfg.Tasks {
			jobs <- job{run, ti}
		}
	}
	close(jobs)
	wg.Wait()

	series := Fig4Series{Model: model}
	total := float64(len(cfg.Tasks))
	for ni, n := range cfg.SampleSizes {
		var baseRuns, vrankRuns, vfocusRuns []float64
		for run := 0; run < cfg.Runs; run++ {
			var base, vr, vf float64
			for _, c := range cells[ni][run] {
				if c.err != nil {
					return series, c.err
				}
				base += c.baseline
				if c.vrank {
					vr++
				}
				if c.vfocus {
					vf++
				}
			}
			baseRuns = append(baseRuns, base/total)
			vrankRuns = append(vrankRuns, vr/total)
			vfocusRuns = append(vfocusRuns, vf/total)
		}
		series.Points = append(series.Points, Fig4Point{
			N:        n,
			Baseline: metrics.Summarize(baseRuns),
			VRank:    metrics.Summarize(vrankRuns),
			VFocus:   metrics.Summarize(vfocusRuns),
		})
	}
	return series, nil
}

// fig4Task measures one (task, run, n) cell: the baseline pool's pass@1
// (its candidates verified as one oracle batch) and whether VRank and
// pre-ranking + ranking select a correct design.
func fig4Task(ctx context.Context, cfg Fig4Config, oracle *Oracle, client llm.Client, profile llm.Profile, task eval.Task, run, n int) fig4Cell {
	var cell fig4Cell
	runVariant := func(v core.Variant) (*core.Result, error) {
		pcfg := core.DefaultConfig(v, profile.Name)
		pcfg.Samples = n
		pcfg.TBSeed = cfg.Seed + int64(run)*31
		pcfg.SelectSeed = cfg.Seed + int64(run)*47
		pcfg.RetryBaseDelay = 0
		pcfg.Backend = cfg.Backend
		pcfg.LegacyTraces = cfg.LegacyTraces
		pcfg.FPMemoCap = cfg.FPMemoCap
		pcfg.LLMRetries = cfg.LLMRetries
		return core.New(client, pcfg).Run(ctx, task)
	}

	baseRes, err := runVariant(core.VariantBaseline)
	if err != nil {
		cell.err = err
		return cell
	}
	codes := make([]string, len(baseRes.Candidates))
	for i, c := range baseRes.Candidates {
		codes[i] = c.Code
	}
	verdicts, err := oracle.VerifyBatch(task.ID, codes)
	if err != nil {
		cell.err = err
		return cell
	}
	correct := 0
	for _, ok := range verdicts {
		if ok {
			correct++
		}
	}
	cell.baseline = float64(correct) / float64(n)

	check := func(v core.Variant) (bool, error) {
		r, rerr := runVariant(v)
		if rerr != nil {
			return false, rerr
		}
		if r.Final == "" {
			return false, nil
		}
		return oracle.Verify(task.ID, r.Final)
	}
	if cell.vrank, err = check(core.VariantVRank); err != nil {
		cell.err = err
		return cell
	}
	// Per the paper, the Fig. 4 VFocus series is pre-ranking + ranking only.
	if cell.vfocus, err = check(core.VariantPreVRank); err != nil {
		cell.err = err
		return cell
	}
	return cell
}

// Render formats the curves as one table per model.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4: Functional correctness (Pass@1 %%) vs # samples (%d runs, mean±std)\n", r.Config.Runs)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\n(%s)\n", s.Model)
		fmt.Fprintf(&b, "  %-5s %-16s %-16s %-16s\n", "n", "Baseline", "VRank", "VFocus")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  %-5d %6.2f ± %-6.2f %6.2f ± %-6.2f %6.2f ± %-6.2f\n",
				p.N,
				100*p.Baseline.Mean, 100*p.Baseline.Std,
				100*p.VRank.Mean, 100*p.VRank.Std,
				100*p.VFocus.Mean, 100*p.VFocus.Std)
		}
	}
	return b.String()
}
