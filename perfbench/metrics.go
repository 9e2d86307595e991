package main

// declared is one metric as BENCHMARK.json declares it.
type declared struct{ name, unit string }

// endToEndMetrics are printed with --trace 0, perLayer with --trace 1, on
// every workload; BENCHMARK.json lists the same names and units (a test
// holds the two together). README.md defines each one.
var endToEndMetrics = []declared{
	{"setup_s", "s"}, {"wall_s", "s"}, {"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"}, {"job_p99_ms", "ms"}, {"peak_rss_mb", "MiB"},
}

var perLayer = func() []declared {
	out := []declared{
		{"llm.generate_calls", "count"}, {"llm.generate_busy_s", "s"},
		{"llm.refine_calls", "count"}, {"llm.refine_busy_s", "s"},
		{"llm.judge_calls", "count"}, {"llm.transient_errs", "count"},
		{"resultstore.get_calls", "count"}, {"resultstore.get_hit_ratio", "ratio"},
		{"resultstore.get_busy_s", "s"}, {"resultstore.put_calls", "count"},
		{"resultstore.put_busy_s", "s"}, {"resultstore.put_fails", "count"},
		{"serve.accept_ms", "ms"}, {"serve.first_event_ms", "ms"},
		{"serve.rank_ms", "ms"}, {"serve.rejected", "count"},
		{"sim.compile_hits", "count"}, {"sim.compile_misses", "count"},
		{"sim.compile_hit_ratio", "ratio"},
		{"testbench.fp_sims", "count"}, {"testbench.fp_memo_len", "count"},
		{"runtime.cpu_s", "s"}, {"runtime.gc_cpu_s", "s"}, {"runtime.gc_cpu_frac", "ratio"},
		{"runtime.gc_cycles", "count"}, {"runtime.alloc_bytes", "B"},
		{"runtime.alloc_objects", "count"},
		{"core.valid_ratio", "ratio"},
		{"trace.spans", "count"}, {"trace.counts_repeat", "bool"}, {"trace.counts_rel_diff", "ratio"},
	}
	for _, row := range replayRows {
		out = append(out, declared{row + ".ns_op", "ns/op"}, declared{row + ".bytes_op", "B/op"},
			declared{row + ".allocs_op", "allocs/op"})
	}
	for _, p := range cpuPackages {
		out = append(out, declared{"cpu_share." + p, "ratio"})
	}
	for _, m := range endToEndMetrics {
		out = append(out, declared{"trace_overhead." + m.name, m.unit})
	}
	return out
}()

// replayRows are the layer replay's rows, one per entry point.
var replayRows = []string{
	"lexer.all", "parser.parse", "sem.check", "core.validate", "printer.print",
	"sim.compile", "sim.compile_delta", "testbench.fp_solo", "testbench.fp_gang",
	"core.rankpool", "exp.verify", "exp.verify_batch", "llm.generate",
	"resultstore.disk_put", "resultstore.disk_get",
}
