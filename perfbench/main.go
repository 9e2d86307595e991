// Command perfbench is the repository's benchmark: the paper reproduction
// (Table I, Fig. 4) and the vfocusd daemon, measured end to end with
// tracing off, and layer by layer in a separate traced run.
//
//	bash perfbench/run.sh --workload table1|fig4|vfocusd --seed N --seconds S --trace 0|1
//
// Every workload process is a fresh process, so the program's process-wide
// caches (compile cache, parse memo, stimulus caches, fingerprint memo,
// oracle verdicts) start empty in each. The last line of standard output is
// the result: {"correct", "attempted", "failed", "metrics"}. README.md
// defines every metric.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// deadline bounds one benchmark invocation, its child processes included.
const deadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "unit":
			os.Exit(unitMain(os.Args[2:]))
		case "replay":
			os.Exit(replayMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner holds one invocation's settings.
type runner struct {
	workload string
	seed     int64
	seconds  int
	out      string // result directory inside the checkout
	tmp      string
	stored   string // recorded digest for (workload, seed), "" when none
	ctx      context.Context
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "table1|fig4|vfocusd")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measure for at least this long")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadSize[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want table1|fig4|vfocusd)\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	var digests map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: digests.json: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	d := &runner{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		out:      filepath.Join(".bench_build", "results"),
		tmp:      filepath.Join(".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid())),
		stored:   digests[*workload][strconv.FormatInt(*seed, 10)],
		ctx:      ctx,
	}
	for _, dir := range []string{d.out, d.tmp} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	var (
		res    result
		report map[string]any
		err    error
	)
	if *trace == 0 {
		res, report, err = d.untimed()
	} else {
		res, report, err = d.traced()
	}
	if rerr := os.RemoveAll(d.tmp); rerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", rerr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	report["meta"] = d.meta()
	report["result"] = res
	// failed_frac rides on the metadata line, not among the metrics: a
	// metric must never be 0, and the failure fraction is 0 on every good
	// run.
	report["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	name := fmt.Sprintf("%s-seed%d-trace%d.json", d.workload, d.seed, *trace)
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(d.out, name), data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	meta, _ := json.Marshal(map[string]any{"meta": report["meta"], "digest": report["digest"],
		"failed_frac": report["failed_frac"], "report": filepath.Join(d.out, name)})
	fmt.Println(string(meta))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// unitOpts selects what one workload process records.
type unitOpts struct {
	traced, setupOnly   bool
	capture, cpu, spans string
}

// runUnit runs one workload process and decodes its report.
func (d *runner) runUnit(o unitOpts) (*unitResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"unit", "--workload", d.workload, "--seed", strconv.FormatInt(d.seed, 10),
		"--traced=" + strconv.FormatBool(o.traced), "--setup-only=" + strconv.FormatBool(o.setupOnly)}
	for _, kv := range [][2]string{{"--capture", o.capture}, {"--cpuprofile", o.cpu}, {"--spans", o.spans}} {
		if kv[1] != "" {
			args = append(args, kv[0], kv[1])
		}
	}
	args = append(args, "--spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))
	var stdout bytes.Buffer
	cmd := exec.CommandContext(d.ctx, exe, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s unit: %w", d.workload, err)
	}
	var r unitResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s unit: bad report: %w", d.workload, err)
	}
	return &r, nil
}

// Set-up probes: after its timed processes, a run starts processes that
// stop at their first timed operation, until it holds setupSamples set-up
// times or has spent probeBudget on probes.
const (
	setupSamples = 9
	probeBudget  = 4 * time.Second
)

// untimed runs fresh workload processes, tracing off, until --seconds have
// passed (at least one), then the set-up probes, and reports the end-to-end
// metrics over them.
func (d *runner) untimed() (result, map[string]any, error) {
	start := time.Now()
	var units []*unitResult
	for len(units) == 0 || time.Since(start) < time.Duration(d.seconds)*time.Second {
		u, err := d.runUnit(unitOpts{})
		if err != nil {
			return result{}, nil, err
		}
		units = append(units, u)
	}
	setups := make([]float64, 0, setupSamples)
	for _, u := range units {
		setups = append(setups, u.SetupS)
	}
	probing := time.Now()
	for len(setups) < setupSamples && time.Since(probing) < probeBudget {
		u, err := d.runUnit(unitOpts{setupOnly: true})
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, u.SetupS)
	}
	res, ref := d.score(units)
	res.Metrics = endToEnd(units)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	n := len(pooledLatencies(units))
	return res, map[string]any{"units": units, "digest": ref, "setup_samples": setups,
		"latency_samples": n, "latency_samples_beyond_p99": beyond(n, 99)}, nil
}

// score applies the output checks: every unit's digest must equal the
// recorded one for this seed or, for an unrecorded seed, the run's
// majority digest. A unit that does not match fails all its operations.
func (d *runner) score(units []*unitResult) (result, string) {
	digests := make([]string, len(units))
	for i, u := range units {
		digests[i] = u.Digest
	}
	ref, ok := digestVerdict(d.stored, digests)
	var res result
	for i, u := range units {
		res.Attempted += u.Attempted
		switch {
		case u.Failed > 0:
			res.Failed += u.Failed
		case !ok[i]:
			res.Failed += u.Attempted
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: digest %s, want %s\n", d.workload, d.seed, u.Digest, ref)
		}
		for _, e := range u.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", d.workload, e)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if d.stored == "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: no recorded digest; this run's is %s\n", d.workload, d.seed, ref)
	}
	return res, ref
}

func pooledLatencies(units []*unitResult) []float64 {
	var lat []float64
	for _, u := range units {
		lat = append(lat, u.LatMs...)
	}
	return lat
}

// endToEnd computes the end-to-end metrics over a run's workload
// processes: medians of per-process set-up, wall time and peak RSS; job
// throughput over the summed timed phases; latency percentiles over the
// pooled per-operation latencies.
func endToEnd(units []*unitResult) map[string]metric {
	var setup, wall, rss []float64
	var ops, timed float64
	for _, u := range units {
		setup = append(setup, u.SetupS)
		wall = append(wall, u.WallS)
		rss = append(rss, u.PeakRSSMB)
		ops += float64(u.Attempted - u.Failed)
		timed += u.WallS
	}
	lat := pooledLatencies(units)
	values := map[string]float64{
		"setup_s":     median(setup),
		"wall_s":      median(wall),
		"jobs_per_s":  ratio(ops, timed),
		"job_p50_ms":  percentile(lat, 50),
		"job_p99_ms":  percentile(lat, 99),
		"peak_rss_mb": median(rss),
	}
	out := make(map[string]metric, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}

// traced runs, each in a fresh process: one untraced unit (the base of the
// tracing overhead), traced unit A (spans and counters), traced unit B
// (the same, plus the CPU profile and the traffic capture), then the layer
// replay over B's traffic and the pprof summary of B's profile.
func (d *runner) traced() (result, map[string]any, error) {
	prefix := filepath.Join(d.out, fmt.Sprintf("%s-seed%d", d.workload, d.seed))
	plain, err := d.runUnit(unitOpts{})
	if err != nil {
		return result{}, nil, err
	}
	a, err := d.runUnit(unitOpts{traced: true, spans: prefix + "-spans-a.tsv.gz"})
	if err != nil {
		return result{}, nil, err
	}
	b, err := d.runUnit(unitOpts{traced: true, spans: prefix + "-spans-b.tsv.gz",
		capture: prefix + "-traffic.json.gz", cpu: prefix + "-cpu.pprof"})
	if err != nil {
		return result{}, nil, err
	}
	units := []*unitResult{plain, a, b}
	res, ref := d.score(units)

	layers := map[string]float64{}
	for k, v := range a.Layers {
		layers[k] = v
	}
	replayed, err := d.replay(prefix + "-traffic.json.gz")
	if err != nil {
		return result{}, nil, err
	}
	for k, v := range replayed {
		layers[k] = v
	}
	shares, err := cpuShares(prefix + "-cpu.pprof")
	if err != nil {
		return result{}, nil, err
	}
	for k, v := range shares {
		layers[k] = v
	}
	// Tracing overhead: traced unit A minus the untraced unit, per
	// end-to-end metric.
	base, traced := endToEnd([]*unitResult{plain}), endToEnd([]*unitResult{a})
	for name, m := range base {
		layers["trace_overhead."+name] = traced[name].Value - m.Value
	}
	// Whether the deterministic counts repeat exactly across the traced
	// runs, and by how much they differ when they do not.
	repeat, diff := 1.0, 0.0
	for _, k := range deterministicCounts {
		if x, y := a.Layers[k], b.Layers[k]; x != y {
			repeat = 0
			diff = math.Max(diff, math.Abs(x-y)/math.Max(x, y))
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s differs across traced runs: %v vs %v\n", d.workload, k, x, y)
		}
	}
	layers["trace.counts_repeat"] = repeat
	layers["trace.counts_rel_diff"] = diff

	res.Metrics = map[string]metric{}
	for _, l := range perLayer {
		v, ok := layers[l.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, nil, fmt.Errorf("per-layer metric %s missing", l.name)
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	extra := []string{}
	for k := range layers {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return result{}, nil, fmt.Errorf("per-layer metrics not declared: %v", extra)
	}
	return res, map[string]any{"units": units, "digest": ref, "layers": layers}, nil
}

// deterministicCounts are the counts a traced run must reproduce exactly.
var deterministicCounts = []string{"testbench.fp_sims", "sim.compile_misses", "llm.generate_calls", "resultstore.put_calls"}

// replay runs the layer replay in a fresh process.
func (d *runner) replay(trafficPath string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(d.ctx, exe, "replay", "--traffic", trafficPath, "--tmp", d.tmp)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	var out map[string]float64
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("replay: bad report: %w", err)
	}
	return out, nil
}

// meta records where and on what a result was measured.
func (d *runner) meta() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"source":     sourceDigest(),
		"workload":   d.workload,
		"seed":       d.seed,
		"seconds":    d.seconds,
		"sizes":      workloadSize[d.workload],
	}
}

// sourceDigest identifies the code measured when the checkout is not a git
// repository: a SHA-256 over the paths and contents of every Go source and
// module file outside .bench_build.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && (path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
