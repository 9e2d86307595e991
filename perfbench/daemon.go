package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/testbench"
)

// daemonModel generates the daemon's candidate pools (the daemon's own
// default model).
const daemonModel = "deepseek-r1"

// storeCap exceeds the ~45k results one daemon process stores.
const storeCap = 1 << 17

// vjob is one daemon job, generated in set-up: tasks cycle over the suite,
// every job has its own seed (so its own ranking stimulus), and the pool is
// pre-generated so the timed phase carries no LLM work.
type vjob struct {
	id    string
	task  eval.Task
	seed  int64
	codes []string
}

// vresult is what one job's client saw.
type vresult struct {
	ok                     bool
	rejected               bool
	err                    string
	start, accepted, first time.Time
	done                   time.Time
	digest                 string
}

// jobSeed spreads job i of a run over distinct 63-bit seeds (splitmix64).
func jobSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// makeJobs pre-generates n job pools from the simulated LLM, the way the
// daemon itself would (transient errors skip the sample).
func makeJobs(seed int64, n, pool int, seam *llmSeam) ([]vjob, error) {
	ctx := context.Background()
	profile, err := llm.ProfileByName(daemonModel)
	if err != nil {
		return nil, err
	}
	tasks := eval.Suite()
	jobs := make([]vjob, n)
	for i := range jobs {
		t := tasks[i%len(tasks)]
		s := jobSeed(seed, i)
		var client llm.Client
		if seam != nil {
			client, err = seam.factory(profile.Name, s, []eval.Task{t})
		} else {
			client, err = llm.NewSimClient(profile, s, []eval.Task{t})
		}
		if err != nil {
			return nil, err
		}
		j := vjob{id: fmt.Sprintf("bench-%d", i), task: t, seed: s}
		for k := 0; k < pool; k++ {
			resp, gerr := client.Generate(ctx, llm.GenerateRequest{TaskID: t.ID, Spec: t.Spec, SampleIndex: k})
			if gerr != nil {
				continue
			}
			j.codes = append(j.codes, resp.Code)
		}
		if len(j.codes) == 0 {
			return nil, fmt.Errorf("job %d: empty pool", i)
		}
		jobs[i] = j
	}
	return jobs, nil
}

// runDaemon serves the jobs from an in-process daemon on a loopback
// httptest server, with an empty in-memory result store. nproc
// closed-loop submitters each submit a job, follow its NDJSON stream to the
// terminal event, and only then submit the next.
func runDaemon(cfg unitConfig) (*unitResult, error) {
	nproc := runtime.NumCPU()
	warm, timed, poolSize := vfocusdSize["warmup_jobs"], vfocusdSize["timed_jobs"], vfocusdSize["pool"]
	res := &unitResult{Workload: cfg.workload, Traced: cfg.traced}

	// The pools are generated in set-up, so the traced process's LLM seam
	// records their spans and capture but counts no calls.
	var seam *llmSeam
	if cfg.traced {
		seam = newSeam(cfg)
	}
	jobs, err := makeJobs(cfg.seed, warm+timed, poolSize, seam)
	if err != nil {
		return nil, err
	}

	// The store is the daemon's in-memory tier, sized so that it never
	// evicts within a process: like a fresh disk store, it answers every
	// fingerprint the memo has dropped. A disk store is not used because
	// creating and deleting ~45k files per process was measured to slow an
	// ext4 filesystem run after run (README.md, "Why the daemon's store is
	// in memory").
	mem := resultstore.NewMemory(storeCap)
	var store resultstore.Store = mem
	var tstore *timedStore
	if cfg.traced {
		tstore = &timedStore{Store: mem, tr: seam.tr}
		store = tstore
	}
	testbench.SetStore(store)
	defer func() {
		testbench.SetStore(nil)
		store.Close()
	}()

	srv := serve.New(serve.Config{Workers: nproc, RankWorkers: 1, StoreDesc: "mem"})
	ts := httptest.NewServer(srv.Handler())
	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	hc := &http.Client{Transport: transport}
	defer func() {
		transport.CloseIdleConnections()
		ts.Close()
		srv.Shutdown(time.Second)
	}()

	results := make([]vresult, len(jobs))
	serveAll(hc, ts.URL, jobs[:warm], results[:warm], nproc)
	if cfg.setupOnly {
		return setupOnly(cfg), nil
	}

	// The store's counters are read as deltas over the timed phase.
	var store0 storeSnap
	if tstore != nil {
		store0 = tstore.snap()
	}
	phase, err := beginTimed(cfg)
	if err != nil {
		return nil, err
	}
	serveAll(hc, ts.URL, jobs[warm:], results[warm:], nproc)
	wall, setup, layers, err := phase.end()
	if err != nil {
		return nil, err
	}
	res.WallS, res.SetupS = wall.Seconds(), setup.Seconds()

	// Every job's stream is checked; the digest covers them all in job order.
	var text bytes.Buffer
	var accept, first, rank []float64
	rejected := 0
	for i, r := range results {
		res.Attempted++
		if !r.ok {
			res.Failed++
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, fmt.Sprintf("%s: %s", jobs[i].id, r.err))
			}
		}
		if r.rejected {
			rejected++
		}
		fmt.Fprintf(&text, "%s\n", r.digest)
		if i < warm || !r.ok {
			continue
		}
		res.LatMs = append(res.LatMs, ms(r.done.Sub(r.start)))
		accept = append(accept, ms(r.accepted.Sub(r.start)))
		first = append(first, ms(r.first.Sub(r.accepted)))
		rank = append(rank, ms(r.done.Sub(r.first)))
		if seam != nil {
			tr := seam.tr
			id := tr.record(0, runSpanID, "serve.job", r.start, r.done, jobs[i].id)
			tr.record(0, id, "serve.accept", r.start, r.accepted, jobs[i].id)
			tr.record(0, id, "serve.queue_validate", r.accepted, r.first, jobs[i].id)
			tr.record(0, id, "serve.rank", r.first, r.done, jobs[i].id)
		}
	}
	res.Digest = digest(text.String())
	if res.Failed > 0 {
		res.Digest = ""
	}

	if cfg.traced {
		seam.tr.record(runSpanID, 0, "serve.run", phase.start, phase.start.Add(wall), "")
		seam.closeJobs("setup.pool", 0)
		layers["serve.accept_ms"] = median(accept)
		layers["serve.first_event_ms"] = median(first)
		layers["serve.rank_ms"] = median(rank)
		layers["serve.rejected"] = float64(rejected)
		d := tstore.snap().minus(store0)
		layers["resultstore.get_calls"] = float64(d.gets)
		layers["resultstore.get_hit_ratio"] = ratio(float64(d.hits), float64(d.gets))
		layers["resultstore.get_busy_s"] = float64(d.getNS) / 1e9
		layers["resultstore.put_calls"] = float64(d.puts)
		layers["resultstore.put_busy_s"] = float64(d.putNS) / 1e9
		layers["resultstore.put_fails"] = float64(d.putFails)
		res.Layers = layers
		if err := seam.finish(cfg, layers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// serveAll runs the jobs through n closed-loop submitters.
func serveAll(hc *http.Client, base string, jobs []vjob, out []vresult, n int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = runJob(hc, base, &jobs[i])
			}
		}()
	}
	wg.Wait()
}

// runJob submits one job and follows its stream to the terminal event. The
// job passes when it was accepted (202), its stream ends in "done" with
// status "completed", and its clusters partition a subset of the pool.
func runJob(hc *http.Client, base string, j *vjob) vresult {
	r := vresult{start: time.Now()}
	body, err := json.Marshal(serve.SubmitRequest{ID: j.id, TaskID: j.task.ID, Candidates: j.codes, Seed: j.seed})
	if err != nil {
		r.err = err.Error()
		return r
	}
	resp, err := hc.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err.Error()
		return r
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		r.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		r.err = fmt.Sprintf("submit: HTTP %d", resp.StatusCode)
		return r
	}
	resp, err = hc.Get(base + "/jobs/" + j.id + "/stream")
	if err != nil {
		r.err = err.Error()
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Sprintf("stream: HTTP %d", resp.StatusCode)
		return r
	}
	var (
		line     bytes.Buffer
		terminal *serve.Event
		clusters []serve.Event
		events   int
	)
	dec := json.NewDecoder(resp.Body)
	for terminal == nil {
		var ev serve.Event
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("ended after %d events without a terminal event", events)
			}
			r.err = "stream: " + err.Error()
			return r
		}
		events++
		if r.first.IsZero() {
			r.first = time.Now()
		}
		switch ev.Type {
		case "cluster":
			clusters = append(clusters, ev)
		case "done", "error", "cancelled":
			r.done = time.Now()
			terminal = &ev
		}
	}
	io.Copy(io.Discard, resp.Body)
	fmt.Fprintf(&line, "%s %s", j.id, terminal.Status)
	seen := make([]bool, len(j.codes))
	for _, c := range clusters {
		fmt.Fprintf(&line, " %d:%d:%s:%v", c.Rank, c.Score, c.Fingerprint, c.Members)
		for _, m := range c.Members {
			if m < 0 || m >= len(seen) || seen[m] {
				r.err = fmt.Sprintf("cluster %d: bad member %d", c.Rank, m)
				return r
			}
			seen[m] = true
		}
	}
	r.digest = line.String()
	if terminal.Type != "done" || terminal.Status != serve.StatusCompleted {
		r.err = fmt.Sprintf("terminal %s %s %s", terminal.Type, terminal.Status, terminal.Error)
		return r
	}
	if !sort.SliceIsSorted(clusters, func(a, b int) bool { return clusters[a].Rank < clusters[b].Rank }) {
		r.err = "clusters out of rank order"
		return r
	}
	r.ok = true
	return r
}
