package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{50, 3}, {20, 1}, {21, 2}, {99, 5}, {100, 5}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of no samples is not NaN")
	}
	// 1000 samples 1..1000: p99 is the 990th, and ten lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if got := beyond(999, 99); got != 9 {
		t.Errorf("beyond(999, 99) = %d, want 9", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestDigestVerdict(t *testing.T) {
	a, b := digest("table"), digest("tablf")
	if a == b || len(a) != 64 {
		t.Fatalf("digest does not tell texts apart")
	}
	cases := []struct {
		name    string
		stored  string
		units   []string
		wantRef string
		wantOK  []bool
	}{
		{"stored match", a, []string{a, a}, a, []bool{true, true}},
		{"stored mismatch fails every unit", a, []string{b, b}, a, []bool{false, false}},
		{"unrecorded seed: majority wins", "", []string{b, a, a}, a, []bool{false, true, true}},
		{"unrecorded seed: tie goes to the first", "", []string{b, a}, b, []bool{true, false}},
		{"a failed unit (no digest) never matches", "", []string{"", "", a}, "", []bool{false, false, false}},
	}
	for _, c := range cases {
		ref, ok := digestVerdict(c.stored, c.units)
		if ref != c.wantRef {
			t.Errorf("%s: ref %q, want %q", c.name, ref, c.wantRef)
		}
		for i := range ok {
			if ok[i] != c.wantOK[i] {
				t.Errorf("%s: unit %d ok=%v, want %v", c.name, i, ok[i], c.wantOK[i])
			}
		}
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   repro/internal/sim.(*Engine).Settle
             repro/internal/testbench.RunFingerprint
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             repro/internal/verilog/parser.(*parser).parseExpr
-----------+-------------------------------------------------------
      10ms   internal/runtime/syscall.Syscall6
             os.(*File).Write
-----------+-------------------------------------------------------
      20ms   repro/internal/verilog/parser.(*parser).next (inline)
             repro/internal/verilog/parser.Parse
-----------+-------------------------------------------------------
      10ms   sort.insertionSort
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu_share.sim": 0.3, "cpu_share.runtime.gc": 0.1, "cpu_share.runtime": 0.2,
		"cpu_share.syscall": 0.1, "cpu_share.verilog.parser": 0.2, "cpu_share.stdlib": 0.1,
	}
	sum := 0.0
	for _, p := range cpuPackages {
		v := got["cpu_share."+p]
		sum += v
		if math.Abs(v-want["cpu_share."+p]) > 1e-9 {
			t.Errorf("cpu_share.%s = %v, want %v", p, v, want["cpu_share."+p])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the metrics the
// benchmark prints together.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []declared) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloadSize[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloadSize) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloadSize))
	}
}
