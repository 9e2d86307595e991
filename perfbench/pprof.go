package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// cpuPackages are the cpu_share.<package> rows, a fixed set so that every
// workload reports the same names. A sample counts under the package of
// its leaf function, with three groupings: "syscall" holds the system-call
// and file/poll layers, "stdlib" the standard library not listed on its
// own, and "perfbench" the benchmark's own client code (package main).
// GC work is split out of the runtime by stack: a sample under a GC
// worker, a mark assist or the background sweeper or scavenger is
// runtime.gc wherever its leaf is. Anything else counts as "other".
var cpuPackages = []string{
	"sim", "testbench", "core", "exp", "eval", "llm", "xrng",
	"verilog.lexer", "verilog.parser", "verilog.sem", "verilog.printer", "verilog.ast",
	"serve", "resultstore", "net", "encoding", "crypto", "syscall", "stdlib", "perfbench",
	"runtime.gc", "runtime", "other",
}

// pkgGroups maps import-path prefixes onto the grouped rows.
var pkgGroups = []struct{ prefix, row string }{
	{"repro/internal/", ""}, // the program's packages: the row is the rest of the path
	{"internal/runtime/syscall", "syscall"},
	{"internal/poll", "syscall"},
	{"syscall", "syscall"},
	{"os", "syscall"},
	{"internal/runtime", "runtime"},
	{"internal/bytealg", "runtime"},
	{"runtime", "runtime"},
	{"net", "net"},
	{"encoding", "encoding"},
	{"crypto", "crypto"},
	{"hash", "crypto"},
	{"main", "perfbench"},
}

var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.markrootSpans",
}

// cpuShares summarizes a CPU profile with `go tool pprof -traces` as the
// share of samples whose self time falls in each of cpuPackages.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.WaitDelay = 5 * time.Second
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(text))
}

// parseTraces reads pprof's -traces listing: blocks separated by dashed
// rules, each opening with "<value><unit>   <leaf function>" followed by
// one caller per line.
func parseTraces(text string) (map[string]float64, error) {
	weights := map[string]float64{}
	var total float64
	var (
		value  float64
		frames []string
	)
	flush := func() {
		if len(frames) == 0 {
			return
		}
		weights[classify(frames)] += value
		total += value
		frames = frames[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		f := strings.Fields(line)
		if v, ok := parseDuration(f[0]); ok && len(f) >= 2 && len(frames) == 0 {
			value = v
			frames = append(frames, f[1])
			continue
		}
		frames = append(frames, f[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	out := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		out["cpu_share."+p] = weights[p] / total
	}
	return out, nil
}

// parseDuration reads pprof's sample values ("10ms", "1.50s", "250us").
func parseDuration(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, false
			}
			return v * u.scale, true
		}
	}
	return 0, false
}

// classify names the cpu_share row of one stack (leaf first).
func classify(frames []string) string {
	for _, fn := range frames {
		for _, root := range gcRoots {
			if fn == root || strings.HasPrefix(fn, root+".") {
				return "runtime.gc"
			}
		}
	}
	if !strings.Contains(frames[0], ".") {
		return "runtime" // assembly routines such as aeshashbody
	}
	pkg := packageOf(frames[0])
	row := ""
	for _, g := range pkgGroups {
		if pkg == g.prefix || strings.HasPrefix(pkg, strings.TrimSuffix(g.prefix, "/")+"/") {
			row = g.row
			if row == "" {
				row = strings.ReplaceAll(strings.TrimPrefix(pkg, g.prefix), "/", ".")
			}
			break
		}
	}
	if row == "" && !strings.Contains(strings.Split(pkg, "/")[0], ".") && !strings.HasPrefix(pkg, "repro/") {
		row = "stdlib"
	}
	for _, p := range cpuPackages {
		if row == p || strings.HasPrefix(row, p+".") {
			return p
		}
	}
	return "other"
}

// packageOf returns the import path of a pprof function name such as
// "repro/internal/sim.(*Engine).Settle" or "net/http.(*conn).serve".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
