package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/testbench"
)

// The traced run observes the program only from outside: it wraps the
// public seams (the experiments' client factory, the persistent store, the
// daemon's HTTP boundary) and reads counters the program already exports.
// Nothing here changes what the program computes; the traced run must
// reproduce the untraced run's output digest.

// span is one timed call at a layer boundary. Parent is the span that
// caused it (a job span or the run span); Ref names the job or task.
type span struct {
	ID, Parent int64
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Ref        string
}

// runSpanID is the span of the whole timed phase: the experiment call, or
// the daemon's timed job batch. Every other span descends from it.
const runSpanID = 1

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.next.Store(runSpanID)
	return t
}

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record stores one finished span and returns its ID.
func (t *tracer) record(id, parent int64, name string, start, end time.Time, ref string) int64 {
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.ns(start), End: t.ns(end), Ref: ref})
	t.mu.Unlock()
	return id
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans, ordered by start, as gzipped tab-separated lines:
// id, parent, name, start_ns, end_ns, ref.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tend_ns\tref")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%s\n", s.ID, s.Parent, s.Name, s.Start, s.End, s.Ref)
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

// busy accumulates a call count and the time spent inside the calls.
type busy struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (b *busy) add(d time.Duration) {
	b.calls.Add(1)
	b.ns.Add(int64(d))
}

func (b *busy) seconds() float64 { return float64(b.ns.Load()) / 1e9 }

// --- LLM seam -----------------------------------------------------------------

// llmSeam wraps llm.NewSimClient as an exp.ClientFactory. The experiments
// mint one client per (model, task, run) job, so each client carries a job
// span from its minting to the end of its last call. It also holds the
// traced process's tracer and traffic capture.
type llmSeam struct {
	tr *tracer
	// on gates counting to the timed phase (the daemon generates its pools
	// in set-up, before timing).
	on atomic.Bool

	generate, refine busy
	judge            atomic.Int64
	transient        atomic.Int64

	mu      sync.Mutex
	clients []*tracedClient
	cap     *capture
}

// newSeam starts the tracer of a traced process, with the traffic capture
// when the process has a capture path.
func newSeam(cfg unitConfig) *llmSeam {
	s := &llmSeam{tr: newTracer()}
	if cfg.capture != "" {
		s.cap = newCapture(captureEvery[cfg.workload])
	}
	return s
}

// finish adds the LLM counters and the span count to layers, then writes
// the spans and the captured traffic.
func (s *llmSeam) finish(cfg unitConfig, layers map[string]float64) error {
	layers["llm.generate_calls"] = float64(s.generate.calls.Load())
	layers["llm.generate_busy_s"] = s.generate.seconds()
	layers["llm.refine_calls"] = float64(s.refine.calls.Load())
	layers["llm.refine_busy_s"] = s.refine.seconds()
	layers["llm.judge_calls"] = float64(s.judge.Load())
	layers["llm.transient_errs"] = float64(s.transient.Load())
	layers["trace.spans"] = float64(s.tr.count())
	if cfg.spans != "" {
		if err := s.tr.write(cfg.spans); err != nil {
			return err
		}
	}
	if s.cap != nil {
		return writeTraffic(cfg.capture, s.cap.traffic(cfg.workload, cfg.seed))
	}
	return nil
}

func (s *llmSeam) factory(model string, seed int64, tasks []eval.Task) (llm.Client, error) {
	profile, err := llm.ProfileByName(model)
	if err != nil {
		return nil, err
	}
	inner, err := llm.NewSimClient(profile, seed, tasks)
	if err != nil {
		return nil, err
	}
	c := &tracedClient{inner: inner, seam: s, id: s.tr.newID(), minted: time.Now()}
	if len(tasks) > 0 {
		c.task = tasks[0].ID
	}
	c.last.Store(int64(c.minted.Sub(s.tr.epoch)))
	if s.cap != nil {
		c.pool = s.cap.pool(model, seed, c.task)
	}
	s.mu.Lock()
	s.clients = append(s.clients, c)
	s.mu.Unlock()
	return c, nil
}

// closeJobs records each client's span, named name under parent, once the
// run is over.
func (s *llmSeam) closeJobs(name string, parent int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for _, c := range s.clients {
		s.tr.spans = append(s.tr.spans, span{ID: c.id, Parent: parent, Name: name,
			Start: s.tr.ns(c.minted), End: c.last.Load(), Ref: c.task})
	}
	s.clients = nil
}

type tracedClient struct {
	inner  llm.Client
	seam   *llmSeam
	id     int64
	task   string
	minted time.Time
	last   atomic.Int64 // end of the latest call, ns since the epoch
	pool   *capturedPool
}

func (c *tracedClient) done(name string, start time.Time, b *busy) {
	end := time.Now()
	if c.seam.on.Load() && b != nil {
		b.add(end.Sub(start))
	}
	c.seam.tr.record(0, c.id, name, start, end, c.task)
	endNS := c.seam.tr.ns(end)
	for {
		old := c.last.Load()
		if endNS <= old || c.last.CompareAndSwap(old, endNS) {
			return
		}
	}
}

func (c *tracedClient) countErr(err error) {
	if c.seam.on.Load() && errors.Is(err, llm.ErrTransient) {
		c.seam.transient.Add(1)
	}
}

func (c *tracedClient) ModelName() string { return c.inner.ModelName() }

func (c *tracedClient) Generate(ctx context.Context, req llm.GenerateRequest) (llm.Response, error) {
	start := time.Now()
	resp, err := c.inner.Generate(ctx, req)
	c.done("llm.generate", start, &c.seam.generate)
	c.countErr(err)
	if c.pool != nil {
		c.pool.add(req.SampleIndex, req.Attempt, resp.Code, err)
	}
	return resp, err
}

func (c *tracedClient) Refine(ctx context.Context, req llm.RefineRequest) (llm.Response, error) {
	start := time.Now()
	resp, err := c.inner.Refine(ctx, req)
	c.done("llm.refine", start, &c.seam.refine)
	c.countErr(err)
	return resp, err
}

func (c *tracedClient) JudgeOutput(ctx context.Context, req llm.JudgeRequest) (llm.JudgeResponse, error) {
	start := time.Now()
	resp, err := c.inner.JudgeOutput(ctx, req)
	if c.seam.on.Load() {
		c.seam.judge.Add(1)
	}
	c.done("llm.judge", start, nil)
	c.countErr(err)
	return resp, err
}

// --- Result-store seam ------------------------------------------------------------

// timedStore decorates a resultstore.Store with call counts, busy time and
// one span per Get or Put. The store is process-wide, so its spans hang off
// the run span.
type timedStore struct {
	resultstore.Store
	tr *tracer

	get, put       busy
	hits, putFails atomic.Int64
}

// storeSnap is a point-in-time copy of a timedStore's counters.
type storeSnap struct{ gets, hits, getNS, puts, putNS, putFails int64 }

func (s *timedStore) snap() storeSnap {
	return storeSnap{s.get.calls.Load(), s.hits.Load(), s.get.ns.Load(),
		s.put.calls.Load(), s.put.ns.Load(), s.putFails.Load()}
}

func (a storeSnap) minus(b storeSnap) storeSnap {
	return storeSnap{a.gets - b.gets, a.hits - b.hits, a.getNS - b.getNS,
		a.puts - b.puts, a.putNS - b.putNS, a.putFails - b.putFails}
}

func (s *timedStore) Get(ctx context.Context, k resultstore.Key) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := s.Store.Get(ctx, k)
	end := time.Now()
	s.get.add(end.Sub(start))
	if ok {
		s.hits.Add(1)
	}
	s.tr.record(0, runSpanID, "resultstore.get", start, end, "")
	return v, ok, err
}

func (s *timedStore) Put(ctx context.Context, k resultstore.Key, value []byte) error {
	start := time.Now()
	err := s.Store.Put(ctx, k, value)
	end := time.Now()
	s.put.add(end.Sub(start))
	if err != nil {
		s.putFails.Add(1)
	}
	s.tr.record(0, runSpanID, "resultstore.put", start, end, "")
	return err
}

// --- Counters --------------------------------------------------------------------

// counters is a snapshot of the process-wide counters the program exports,
// plus the Go runtime's. The traced run reports deltas over the timed phase.
type counters struct {
	compileHits, compileMisses uint64
	fpSims                     uint64
	cpuNS                      int64
	rt                         map[string]float64
}

var runtimeMetrics = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readCounters() counters {
	var c counters
	c.compileHits, c.compileMisses = sim.DefaultCache.Stats()
	c.fpSims = testbench.ReadStoreStats().Sims
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	c.rt = make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			c.rt[s.Name] = s.Value.Float64()
		case metrics.KindUint64:
			c.rt[s.Name] = float64(s.Value.Uint64())
		}
	}
	return c
}

// counterDeltas turns two snapshots into the per-layer counter metrics.
func counterDeltas(a, b counters) map[string]float64 {
	m := map[string]float64{}
	hits := float64(b.compileHits - a.compileHits)
	misses := float64(b.compileMisses - a.compileMisses)
	m["sim.compile_hits"] = hits
	m["sim.compile_misses"] = misses
	m["sim.compile_hit_ratio"] = ratio(hits, hits+misses)
	m["testbench.fp_sims"] = float64(b.fpSims - a.fpSims)
	m["testbench.fp_memo_len"] = float64(testbench.FPMemoLen())
	m["runtime.cpu_s"] = float64(b.cpuNS-a.cpuNS) / 1e9
	d := func(name string) float64 { return b.rt[name] - a.rt[name] }
	gc := d("/cpu/classes/gc/total:cpu-seconds")
	m["runtime.gc_cpu_s"] = gc
	m["runtime.gc_cpu_frac"] = ratio(gc, d("/cpu/classes/total:cpu-seconds")-d("/cpu/classes/idle:cpu-seconds"))
	m["runtime.gc_cycles"] = d("/gc/cycles/total:gc-cycles")
	m["runtime.alloc_bytes"] = d("/gc/heap/allocs:bytes")
	m["runtime.alloc_objects"] = d("/gc/heap/allocs:objects")
	return m
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// --- Traffic capture ------------------------------------------------------------------

// capture keeps a deterministic sample of the traced run's traffic — the
// candidate pools of every every-th job key — for the layer replay.
type capture struct {
	every uint32

	mu    sync.Mutex
	pools map[string]*capturedPool
}

type capturedPool struct {
	Model string `json:"model"`
	Seed  int64  `json:"seed"`
	Task  string `json:"task"`

	mu    sync.Mutex
	codes map[[2]int]string // (sample, attempt) -> code
}

func newCapture(every int) *capture {
	return &capture{every: uint32(every), pools: map[string]*capturedPool{}}
}

// pool returns the capture slot of a job key, or nil when the key is not
// in the sample. A key seen again (Fig. 4 re-mints one client per sample
// size) shares its slot.
func (c *capture) pool(model string, seed int64, task string) *capturedPool {
	key := fmt.Sprintf("%s|%d|%s", model, seed, task)
	h := fnv.New32a()
	h.Write([]byte(key))
	if h.Sum32()%c.every != 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pools[key]
	if !ok {
		p = &capturedPool{Model: model, Seed: seed, Task: task, codes: map[[2]int]string{}}
		c.pools[key] = p
	}
	return p
}

func (p *capturedPool) add(sample, attempt int, code string, err error) {
	if err != nil {
		return
	}
	p.mu.Lock()
	p.codes[[2]int{sample, attempt}] = code
	p.mu.Unlock()
}

// traffic is the replay's input: pools in key order, each with its
// generated codes in (sample, attempt) order and the requests that made
// them.
type traffic struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Pools    []poolData `json:"pools"`
}

type poolData struct {
	Model    string   `json:"model"`
	Seed     int64    `json:"seed"`
	Task     string   `json:"task"`
	Samples  []int    `json:"samples"`
	Attempts []int    `json:"attempts"`
	Codes    []string `json:"codes"`
}

func (c *capture) traffic(workload string, seed int64) traffic {
	c.mu.Lock()
	keys := make([]string, 0, len(c.pools))
	for k := range c.pools {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	t := traffic{Workload: workload, Seed: seed}
	for _, k := range keys {
		p := c.pools[k]
		p.mu.Lock()
		ids := make([][2]int, 0, len(p.codes))
		for id := range p.codes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool {
			if ids[a][0] != ids[b][0] {
				return ids[a][0] < ids[b][0]
			}
			return ids[a][1] < ids[b][1]
		})
		pd := poolData{Model: p.Model, Seed: p.Seed, Task: p.Task}
		for _, id := range ids {
			pd.Samples = append(pd.Samples, id[0])
			pd.Attempts = append(pd.Attempts, id[1])
			pd.Codes = append(pd.Codes, p.codes[id])
		}
		p.mu.Unlock()
		t.Pools = append(t.Pools, pd)
	}
	return t
}
