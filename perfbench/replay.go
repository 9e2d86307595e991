package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/lexer"
	"repro/internal/verilog/parser"
	"repro/internal/verilog/printer"
	"repro/internal/verilog/sem"
)

// The layer replay runs in a fresh process over the traffic a traced run
// captured. It calls each layer's entry point once per distinct input, one
// row at a time on one goroutine, and reports time, bytes and allocations
// per call. Rows that go through the process-wide compile cache (every row
// from testbench.fp_solo on) start after a flush that fills the cache with
// unrelated designs, and each such row simulates under its own stimulus, so
// no row is served from an earlier row's compiled designs or fingerprints.
// Duplicates inside one row (canonically equal candidates) still hit, as
// they would in the program.

// replayRow is one entry point's measurement.
type replayRow struct {
	name string
	ops  int
	run  func()
}

// replayMain reads the traffic file and prints the row metrics as JSON.
func replayMain(args []string) int {
	fs := flag.NewFlagSet("perfbench replay", flag.ContinueOnError)
	in := fs.String("traffic", "", "traffic file written by a traced run")
	tmp := fs.String("tmp", os.TempDir(), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	t, err := readTraffic(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench replay: %v\n", err)
		return 1
	}
	out, err := replay(t, *tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench replay: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench replay: %v\n", err)
		return 1
	}
	return 0
}

// replayPool is one captured pool resolved against the suite.
type replayPool struct {
	task  eval.Task
	codes []string
	srcs  []*ast.Source // nil where the candidate is invalid
}

func replay(t traffic, tmp string) (map[string]float64, error) {
	ctx := context.Background()
	suite := map[string]eval.Task{}
	for _, task := range eval.Suite() {
		suite[task.ID] = task
	}
	type codeKey struct{ task, code string }
	var (
		pools    []*replayPool
		distinct []codeKey // first-seen order
		seen     = map[codeKey]bool{}
		clients  []llm.Client
		requests [][]llm.GenerateRequest
		total    int
	)
	for _, p := range t.Pools {
		task, ok := suite[p.Task]
		if !ok {
			return nil, fmt.Errorf("unknown task %q in traffic", p.Task)
		}
		profile, err := llm.ProfileByName(p.Model)
		if err != nil {
			return nil, err
		}
		c, err := llm.NewSimClient(profile, p.Seed, []eval.Task{task})
		if err != nil {
			return nil, err
		}
		reqs := make([]llm.GenerateRequest, len(p.Codes))
		for i := range p.Codes {
			reqs[i] = llm.GenerateRequest{TaskID: task.ID, Spec: task.Spec, SampleIndex: p.Samples[i], Attempt: p.Attempts[i]}
		}
		clients = append(clients, c)
		requests = append(requests, reqs)
		pools = append(pools, &replayPool{task: task, codes: p.Codes, srcs: make([]*ast.Source, len(p.Codes))})
		for _, code := range p.Codes {
			total++
			k := codeKey{task.ID, code}
			if !seen[k] {
				seen[k] = true
				distinct = append(distinct, k)
			}
		}
	}
	if len(distinct) == 0 {
		return nil, fmt.Errorf("traffic holds no candidates")
	}

	// Inputs every row needs, built outside the timed rows.
	texts := make([]string, len(distinct))
	for i, k := range distinct {
		texts[i] = k.code
	}
	var parsed []*ast.Source
	for _, code := range texts {
		if src, err := parser.Parse(code); err == nil {
			parsed = append(parsed, src)
		}
	}
	goldenSrc := map[string]*ast.Source{}
	goldenD := map[string]*sim.Design{}
	for _, p := range pools {
		if _, ok := goldenSrc[p.task.ID]; ok {
			continue
		}
		src, err := eval.ParseCached(p.task.Golden)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", p.task.ID, err)
		}
		d, err := sim.Compile(src, eval.TopModule)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", p.task.ID, err)
		}
		goldenSrc[p.task.ID], goldenD[p.task.ID] = src, d
	}
	stimuli := func(salt int64) map[string]*testbench.Stimulus {
		m := map[string]*testbench.Stimulus{}
		for _, p := range pools {
			m[p.task.ID] = testbench.RankingCached(t.Seed*7919+salt+int64(p.task.Index), 0, p.task.Ifc)
		}
		return m
	}
	flushers, err := flushDesigns(pools)
	if err != nil {
		return nil, err
	}
	flush := func() {
		for _, src := range flushers {
			sim.CompileCached(src, eval.TopModule)
		}
	}

	out := map[string]float64{}
	var cacheNote []string
	measure := func(r replayRow) {
		h0, m0c := sim.DefaultCache.Stats()
		defer func() {
			h1, m1c := sim.DefaultCache.Stats()
			if m1c > m0c {
				cacheNote = append(cacheNote, fmt.Sprintf("%s %d/%d", r.name, h1-h0, h1-h0+m1c-m0c))
			}
		}()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		r.run()
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		n := float64(r.ops)
		if n == 0 {
			n = 1
		}
		out[r.name+".ns_op"] = float64(d.Nanoseconds()) / n
		out[r.name+".bytes_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
		out[r.name+".allocs_op"] = float64(m1.Mallocs-m0.Mallocs) / n
	}

	ngen := 0
	for _, reqs := range requests {
		ngen += len(reqs)
	}
	measure(replayRow{"llm.generate", ngen, func() {
		for i, c := range clients {
			for _, req := range requests[i] {
				c.Generate(ctx, req)
			}
		}
	}})
	measure(replayRow{"lexer.all", len(texts), func() {
		for _, code := range texts {
			lexer.New(code).All()
		}
	}})
	measure(replayRow{"parser.parse", len(texts), func() {
		for _, code := range texts {
			parser.Parse(code)
		}
	}})
	measure(replayRow{"sem.check", len(parsed), func() {
		for _, src := range parsed {
			sem.Check(src)
		}
	}})
	measure(replayRow{"printer.print", len(parsed), func() {
		for _, src := range parsed {
			printer.Print(src)
		}
	}})

	// core.validate runs before anything else touches eval's parse memo, so
	// each distinct candidate is parsed and checked inside the row.
	valid := map[codeKey]*ast.Source{}
	measure(replayRow{"core.validate", len(distinct), func() {
		for _, k := range distinct {
			if src, ok := core.ValidateCandidate(k.code); ok {
				valid[k] = src
			}
		}
	}})
	type validSrc struct {
		task string
		src  *ast.Source
	}
	var valids []validSrc
	for _, k := range distinct {
		if src := valid[k]; src != nil {
			valids = append(valids, validSrc{k.task, src})
		}
	}
	nvalid := 0
	for _, p := range pools {
		for i, code := range p.codes {
			p.srcs[i] = valid[codeKey{p.task.ID, code}]
			if p.srcs[i] != nil {
				nvalid++
			}
		}
	}
	out["core.valid_ratio"] = ratio(float64(nvalid), float64(total))

	measure(replayRow{"sim.compile", len(valids), func() {
		for _, v := range valids {
			sim.Compile(v.src, eval.TopModule)
		}
	}})
	measure(replayRow{"sim.compile_delta", len(valids), func() {
		for _, v := range valids {
			sim.CompileDelta(goldenD[v.task], v.src, eval.TopModule)
		}
	}})

	stSolo := stimuli(1)
	flush()
	measure(replayRow{"testbench.fp_solo", len(valids), func() {
		for _, v := range valids {
			testbench.RunFingerprint(v.src, eval.TopModule, stSolo[v.task], testbench.BackendCompiled)
		}
	}})

	// The gang rows take each pool's valid members, in pool order, as one
	// batch with the cached golden as delta base (as core.RankPool does).
	gangOf := make([][]*ast.Source, len(pools))
	for i, p := range pools {
		for _, src := range p.srcs {
			if src != nil {
				gangOf[i] = append(gangOf[i], src)
			}
		}
	}
	gangBase := map[string]*sim.Design{}
	for id, src := range goldenSrc {
		d, err := sim.CompileCached(src, eval.TopModule)
		if err != nil {
			return nil, err
		}
		gangBase[id] = d
	}
	stGang := stimuli(2)
	flush()
	measure(replayRow{"testbench.fp_gang", len(pools), func() {
		for i, p := range pools {
			testbench.RunFingerprintGang(gangOf[i], eval.TopModule, stGang[p.task.ID], testbench.BackendCompiled, gangBase[p.task.ID])
		}
	}})

	stRank := stimuli(3)
	flush()
	var rankErr error
	measure(replayRow{"core.rankpool", len(pools), func() {
		for _, p := range pools {
			_, err := core.RankPool(ctx, p.srcs, stRank[p.task.ID], core.RankPoolConfig{
				Backend: testbench.BackendCompiled, Workers: 1, Golden: goldenSrc[p.task.ID],
			})
			if err != nil && rankErr == nil {
				rankErr = err
			}
		}
	}})
	if rankErr != nil {
		return nil, fmt.Errorf("rankpool: %w", rankErr)
	}

	// Oracle rows: a fresh oracle each, prepared per task (golden verdict)
	// outside the row, with its own verification seed.
	tasks := eval.Suite()
	oracle := func(seed int64) *exp.Oracle {
		o := exp.NewOracle(tasks, seed)
		for id, task := range suite {
			if _, used := goldenSrc[id]; used {
				o.Verify(id, task.Golden)
			}
		}
		return o
	}
	ov := oracle(t.Seed + 7)
	flush()
	var verr error
	measure(replayRow{"exp.verify", len(distinct), func() {
		for _, k := range distinct {
			if _, err := ov.Verify(k.task, k.code); err != nil && verr == nil {
				verr = err
			}
		}
	}})
	ob := oracle(t.Seed + 8)
	flush()
	measure(replayRow{"exp.verify_batch", len(pools), func() {
		for _, p := range pools {
			if _, err := ob.VerifyBatch(p.task.ID, p.codes); err != nil && verr == nil {
				verr = err
			}
		}
	}})
	if verr != nil {
		return nil, fmt.Errorf("oracle: %w", verr)
	}

	// Store rows: the records are the ones the program itself writes for
	// these candidates, collected by an untimed pass with a recording store
	// installed, then put to and read back from a fresh disk store.
	rec := &recordingStore{}
	testbench.SetStore(rec)
	stRec := stimuli(4)
	for _, v := range valids {
		testbench.RunFingerprint(v.src, eval.TopModule, stRec[v.task], testbench.BackendCompiled)
	}
	testbench.SetStore(nil)
	dir, err := os.MkdirTemp(tmp, "replay-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := resultstore.NewDisk(dir)
	if err != nil {
		return nil, err
	}
	defer disk.Close()
	var serr error
	measure(replayRow{"resultstore.disk_put", len(rec.keys), func() {
		for i, k := range rec.keys {
			if err := disk.Put(ctx, k, rec.vals[i]); err != nil && serr == nil {
				serr = err
			}
		}
	}})
	measure(replayRow{"resultstore.disk_get", len(rec.keys), func() {
		for _, k := range rec.keys {
			if _, ok, err := disk.Get(ctx, k); (err != nil || !ok) && serr == nil {
				serr = fmt.Errorf("get %v: ok=%v err=%v", k, ok, err)
			}
		}
	}})
	if serr != nil {
		return nil, fmt.Errorf("disk store: %w", serr)
	}
	fmt.Fprintf(os.Stderr, "perfbench replay: %d pools, %d candidates, %d distinct, %d valid, %d store records; compile-cache hits/lookups per row: %s\n",
		len(pools), total, len(distinct), len(valids), len(rec.keys), strings.Join(cacheNote, ", "))
	return out, nil
}

// flushDesigns returns more distinct designs than the compile cache holds:
// the pools' goldens, each with a run of extra unused wires so that every
// copy has its own canonical form. Compiling them all evicts every earlier
// entry from the LRU.
func flushDesigns(pools []*replayPool) ([]*ast.Source, error) {
	var goldens []string
	seen := map[string]bool{}
	for _, p := range pools {
		if !seen[p.task.ID] {
			seen[p.task.ID] = true
			goldens = append(goldens, p.task.Golden)
		}
	}
	const n = 1100 // > the compile cache's 1024 entries
	out := make([]*ast.Source, 0, n)
	for i := 0; len(out) < n; i++ {
		g := goldens[i%len(goldens)]
		cut := strings.LastIndex(g, "endmodule")
		if cut < 0 {
			return nil, fmt.Errorf("golden without endmodule")
		}
		var b strings.Builder
		b.WriteString(g[:cut])
		for w := 0; w <= i/len(goldens); w++ {
			fmt.Fprintf(&b, "  wire perfbench_flush_%d;\n", w)
		}
		b.WriteString(g[cut:])
		src, err := parser.Parse(b.String())
		if err != nil {
			return nil, fmt.Errorf("flush design: %w", err)
		}
		out = append(out, src)
	}
	return out, nil
}

// recordingStore is a resultstore.Store that only records Puts and misses
// every Get.
type recordingStore struct {
	mu   sync.Mutex
	keys []resultstore.Key
	vals [][]byte
}

func (s *recordingStore) Get(context.Context, resultstore.Key) ([]byte, bool, error) {
	return nil, false, nil
}

func (s *recordingStore) Put(_ context.Context, k resultstore.Key, v []byte) error {
	s.mu.Lock()
	s.keys = append(s.keys, k)
	s.vals = append(s.vals, append([]byte(nil), v...))
	s.mu.Unlock()
	return nil
}

func (s *recordingStore) Delete(context.Context, resultstore.Key) error { return nil }

func (s *recordingStore) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys), nil
}

func (s *recordingStore) Close() error { return nil }
