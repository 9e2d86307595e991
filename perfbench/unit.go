package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/testbench"
)

// Workload sizes. Table I runs at the paper's size. Fig. 4 keeps all ten
// sample sizes and the three models but cuts the paper's ten runs to one,
// so that a run of the benchmark holds several Fig. 4 calls. The
// daemon serves one warm-up job per task, then a timed batch large enough
// that at least ten latencies lie beyond its p99.
var (
	paperModels  = []string{"deepseek-r1", "o3-mini-high", "qwq-32b"}
	fig4Sizes    = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	table1Size   = sizes{"models": 3, "tasks": 156, "samples": 50, "runs": 5}
	fig4Size     = sizes{"models": 3, "tasks": 156, "sample_sizes": len(fig4Sizes), "runs": 1}
	vfocusdSize  = sizes{"warmup_jobs": 156, "timed_jobs": 2000, "pool": 50, "submitters": runtime.NumCPU()}
	workloadSize = map[string]sizes{"table1": table1Size, "fig4": fig4Size, "vfocusd": vfocusdSize}
	// captureEvery samples about 48 job keys per workload for the replay.
	captureEvery = map[string]int{"table1": 48, "fig4": 10, "vfocusd": 24}
)

type sizes map[string]int

// unitResult is what one workload process reports to the runner on its
// standard output.
type unitResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	LatMs     []float64          `json:"lat_ms"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Digest    string             `json:"digest"`
	Errors    []string           `json:"errors,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// unitConfig is one workload process's job, passed by the runner as flags.
type unitConfig struct {
	workload   string
	seed       int64
	traced     bool
	spawnedAt  time.Time
	capture    string // traffic output path ("" = no capture)
	cpuprofile string // CPU profile of the timed phase ("" = none)
	spans      string // span output path ("" = none)
	setupOnly  bool   // stop at the first timed operation
}

// unitMain runs one workload in this (fresh) process and prints its
// unitResult.
func unitMain(args []string) int {
	fs := flag.NewFlagSet("perfbench unit", flag.ContinueOnError)
	var cfg unitConfig
	var spawned int64
	fs.StringVar(&cfg.workload, "workload", "", "table1|fig4|vfocusd")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.BoolVar(&cfg.traced, "traced", false, "wrap the seams and read the layer counters")
	fs.Int64Var(&spawned, "spawned-at", 0, "runner's wall clock (Unix ns) just before it started this process")
	fs.StringVar(&cfg.capture, "capture", "", "write the sampled traffic here")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the timed phase here")
	fs.StringVar(&cfg.spans, "spans", "", "write the spans here")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "report the set-up time and stop before the timed phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.spawnedAt = time.Unix(0, spawned)
	if spawned == 0 {
		cfg.spawnedAt = time.Now()
	}
	var (
		res *unitResult
		err error
	)
	switch cfg.workload {
	case "table1", "fig4":
		res, err = runExperiment(cfg)
	case "vfocusd":
		res, err = runDaemon(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench unit: %v\n", err)
		return 1
	}
	res.PeakRSSMB = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench unit: %v\n", err)
		return 1
	}
	return 0
}

// timedPhase brackets the measured work: it takes the counter snapshot and
// starts the CPU profile, and its end stops both.
type timedPhase struct {
	cfg   unitConfig
	start time.Time
	c0    counters
	prof  *os.File
}

func beginTimed(cfg unitConfig) (*timedPhase, error) {
	p := &timedPhase{cfg: cfg}
	if cfg.traced {
		p.c0 = readCounters()
	}
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		p.prof = f
	}
	p.start = time.Now()
	return p, nil
}

// end returns the timed duration, the set-up time (process start to the
// first timed operation) and, when traced, the counter deltas.
func (p *timedPhase) end() (wall, setup time.Duration, layers map[string]float64, err error) {
	wall = time.Since(p.start)
	setup = p.start.Sub(p.cfg.spawnedAt)
	if p.prof != nil {
		pprof.StopCPUProfile()
		err = p.prof.Close()
	}
	if p.cfg.traced {
		layers = counterDeltas(p.c0, readCounters())
	}
	return wall, setup, layers, err
}

// runExperiment runs one Table I or Fig. 4 reproduction call: compiled
// backend, no result store, the simulated LLM, Workers = nproc.
func runExperiment(cfg unitConfig) (*unitResult, error) {
	ctx := context.Background()
	tasks := eval.Suite()
	res := &unitResult{Workload: cfg.workload, Traced: cfg.traced, Attempted: 1}
	var (
		seam    *llmSeam
		factory exp.ClientFactory
	)
	if cfg.traced {
		seam = newSeam(cfg)
		seam.on.Store(true)
		factory = seam.factory
	}
	workers := runtime.NumCPU()
	if cfg.setupOnly {
		return setupOnly(cfg), nil
	}

	phase, err := beginTimed(cfg)
	if err != nil {
		return nil, err
	}
	var (
		text   string
		runErr error
	)
	switch cfg.workload {
	case "table1":
		var r *exp.Table1Result
		r, runErr = exp.RunTable1(ctx, exp.Table1Config{
			Models: paperModels, Tasks: tasks, Samples: table1Size["samples"], Runs: table1Size["runs"],
			Seed: cfg.seed, Workers: workers, Backend: testbench.BackendCompiled, NewClient: factory,
		})
		if runErr == nil {
			text = r.Render()
		}
	case "fig4":
		var r *exp.Fig4Result
		r, runErr = exp.RunFig4(ctx, exp.Fig4Config{
			Models: paperModels, Tasks: tasks, SampleSizes: fig4Sizes, Runs: fig4Size["runs"],
			Seed: cfg.seed, Workers: workers, Backend: testbench.BackendCompiled, NewClient: factory,
		})
		if runErr == nil {
			text = r.Render()
		}
	}
	wall, setup, layers, err := phase.end()
	if err != nil {
		return nil, err
	}
	res.WallS, res.SetupS = wall.Seconds(), setup.Seconds()
	res.LatMs = []float64{wall.Seconds() * 1e3}
	if runErr != nil {
		res.Failed = 1
		res.Errors = append(res.Errors, runErr.Error())
	} else if err := checkRendered(cfg.workload, text); err != nil {
		res.Failed = 1
		res.Errors = append(res.Errors, err.Error())
	} else {
		res.Digest = digest(text)
	}
	if cfg.traced {
		seam.tr.record(runSpanID, 0, "exp.run."+cfg.workload, phase.start, phase.start.Add(wall), "")
		seam.closeJobs("exp.job", runSpanID)
		// The experiments run with the store off and no daemon: those seams
		// see no calls.
		for _, k := range []string{"resultstore.get_calls", "resultstore.get_hit_ratio", "resultstore.get_busy_s",
			"resultstore.put_calls", "resultstore.put_busy_s", "resultstore.put_fails",
			"serve.accept_ms", "serve.first_event_ms", "serve.rank_ms", "serve.rejected"} {
			layers[k] = 0
		}
		res.Layers = layers
		if err := seam.finish(cfg, layers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkRendered is the structural check on a rendered experiment, made on
// every seed: a stored digest pins the exact text only for recorded seeds.
func checkRendered(workload, text string) error {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	switch workload {
	case "table1":
		// Header, column names, rule, then 3 datasets per model.
		if want := 3 + 3*len(paperModels); len(lines) != want {
			return fmt.Errorf("table1: %d lines rendered, want %d", len(lines), want)
		}
		for _, l := range lines[3:] {
			if err := checkPercents(l); err != nil {
				return fmt.Errorf("table1: %w", err)
			}
		}
	case "fig4":
		rows := 0
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) == 10 {
				if _, err := strconv.Atoi(f[0]); err == nil {
					rows++
				}
			}
		}
		if want := len(paperModels) * len(fig4Sizes); rows != want {
			return fmt.Errorf("fig4: %d points rendered, want %d", rows, want)
		}
	}
	return nil
}

// checkPercents requires every "NN.N%" field of a Table I row to lie in
// [0, 100].
func checkPercents(line string) error {
	for _, f := range strings.Fields(line) {
		f = strings.Trim(f, "()+")
		if !strings.HasSuffix(f, "%") || strings.HasPrefix(f, "-") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f, "%"), 64)
		if err != nil {
			continue
		}
		if v < 0 || v > 100 {
			return fmt.Errorf("pass rate %v%% out of range in %q", v, line)
		}
	}
	return nil
}

// setupOnly is the report of a process stopped at its first timed
// operation: a set-up sample and nothing else.
func setupOnly(cfg unitConfig) *unitResult {
	return &unitResult{Workload: cfg.workload, SetupS: time.Since(cfg.spawnedAt).Seconds()}
}

func writeTraffic(path string, t traffic) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	if err := json.NewEncoder(bw).Encode(t); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTraffic(path string) (traffic, error) {
	var t traffic
	f, err := os.Open(path)
	if err != nil {
		return t, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return t, err
	}
	err = json.NewDecoder(zr).Decode(&t)
	return t, err
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
