package llm

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/eval"
	"repro/internal/mutate"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/printer"
	"repro/internal/xrng"
)

// SimClient is the simulated reasoning-LLM backend. It is deterministic for
// a fixed (profile, seed) pair: every request derives its randomness from a
// hash of the seed and the request's identifying fields, so repeated runs
// and retries reproduce exactly.
type SimClient struct {
	profile Profile
	seed    int64
	tasks   map[string]eval.Task
	golden  map[string]*ast.Source

	// genMemo caches Generate responses by request identity. Generation is
	// a deterministic function of (seed, profile, request), and experiment
	// drivers replay the identical request stream once per pipeline variant,
	// so the memo turns three of every four completions into map hits.
	genMu   sync.Mutex
	genMemo map[string]genOutcome
}

// genOutcome is a memoized Generate result.
type genOutcome struct {
	resp Response
	err  error
}

var _ Client = (*SimClient)(nil)

// NewSimClient builds a simulated client for one model profile over the
// benchmark tasks.
func NewSimClient(profile Profile, seed int64, tasks []eval.Task) (*SimClient, error) {
	c := &SimClient{
		profile: profile,
		seed:    seed,
		tasks:   make(map[string]eval.Task, len(tasks)),
		golden:  make(map[string]*ast.Source, len(tasks)),
	}
	for _, t := range tasks {
		src, err := eval.ParseCached(t.Golden)
		if err != nil {
			return nil, fmt.Errorf("task %s golden: %w", t.ID, err)
		}
		c.tasks[t.ID] = t
		c.golden[t.ID] = src
	}
	return c, nil
}

// ModelName implements Client.
func (c *SimClient) ModelName() string { return c.profile.Name }

// fnvAdd folds bytes into a running 64-bit FNV-1a hash (the allocation-free
// replacement for boxing a hash/fnv hasher per request). The constants are
// sim's canonical definitions, shared with the fingerprint paths.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * sim.FNVPrime64
	}
	return h
}

// rngFor derives a deterministic RNG from the request identity. Seeding a
// stream is one word (xrng), so deriving a fresh RNG per request no longer
// shows up in the CPU profile the way math/rand's 607-word warmup did.
func (c *SimClient) rngFor(parts ...string) *xrng.Rand {
	var buf [20]byte
	h := fnvAdd(sim.FNVOffset64, string(strconv.AppendInt(buf[:0], c.seed, 10)))
	h = fnvAdd(h, "|")
	h = fnvAdd(h, c.profile.Name)
	for _, p := range parts {
		h = (h ^ 0) * sim.FNVPrime64
		h = fnvAdd(h, p)
	}
	return xrng.New(h)
}

// canonicalSeed derives the per-task "common misconception" seed shared by
// all candidates of a task.
func (c *SimClient) canonicalSeed(taskID string) int64 {
	return int64(fnvAdd(sim.FNVOffset64, "canonical|"+taskID))
}

// canonicalProb returns the per-task misconception strength. Tasks split
// roughly in half: some have a strong shared misconception (most wrong
// candidates make the *same* mistake, so a large wrong cluster can outvote a
// thin correct one — the failure mode self-consistency inherits), while on
// the rest errors scatter idiosyncratically (even a few correct candidates
// form the plurality, which is how ranking lifts tasks whose raw pass rate
// is low). The model-level CanonicalProb scales the strong case.
func (c *SimClient) canonicalProb(taskID string) float64 {
	if fnvAdd(sim.FNVOffset64, "misconception|"+taskID)%2 == 0 {
		return 0.06
	}
	return c.profile.CanonicalProb * 1.3
}

// Generate implements Client. Results are memoized: the client is
// deterministic, so identical requests always produce identical responses
// (including simulated transient failures).
func (c *SimClient) Generate(ctx context.Context, req GenerateRequest) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	key := req.TaskID + "|" + itoa(req.SampleIndex) + "|" + itoa(req.Attempt)
	c.genMu.Lock()
	if out, hit := c.genMemo[key]; hit {
		c.genMu.Unlock()
		return out.resp, out.err
	}
	c.genMu.Unlock()
	resp, err := c.generate(req)
	c.genMu.Lock()
	if c.genMemo == nil {
		c.genMemo = make(map[string]genOutcome)
	}
	c.genMemo[key] = genOutcome{resp: resp, err: err}
	c.genMu.Unlock()
	return resp, err
}

// generate computes one completion (the uncached Generate body).
func (c *SimClient) generate(req GenerateRequest) (Response, error) {
	task, ok := c.tasks[req.TaskID]
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownTask, req.TaskID)
	}
	rng := c.rngFor("gen", req.TaskID, itoa(req.SampleIndex), itoa(req.Attempt))
	if rng.Float64() < c.profile.PTransient {
		return Response{}, fmt.Errorf("%w: simulated rate limit", ErrTransient)
	}

	u := rng.Float64() // latent length percentile
	tokens := c.profile.ReasoningTokens(task.Difficulty, u)
	reasoning := c.reasoningText(task, tokens, rng)
	if rng.Float64() < c.profile.PNoTrace {
		reasoning, tokens = "", 0
	}

	top := c.golden[req.TaskID].FindModule(eval.TopModule)
	if rng.Float64() < c.profile.PInvalid {
		return Response{
			Code:            truncateCode(printModuleSource(c.golden[req.TaskID], top), rng),
			Reasoning:       reasoning,
			ReasoningTokens: tokens,
		}, nil
	}

	correct := rng.Float64() < c.profile.PassProbability(task.Category, task.Difficulty, u)
	var mod *ast.Module
	if correct {
		mod = mutate.Cosmetic(top, rng)
	} else {
		// With probability CanonicalProb the candidate reproduces the
		// task's common misconception exactly (one shared bug, so these
		// candidates agree behaviorally); otherwise it makes 1..MaxBugs
		// idiosyncratic mistakes.
		var cfg mutate.Config
		if rng.Float64() < c.canonicalProb(req.TaskID) {
			cfg = mutate.Config{
				Count:         1,
				CanonicalSeed: c.canonicalSeed(req.TaskID),
				CanonicalProb: 1,
			}
		} else {
			bugs := 1
			if c.profile.MaxBugs > 1 {
				bugs += rng.Intn(c.profile.MaxBugs)
			}
			cfg = mutate.Config{Count: bugs}
		}
		mutant, applied := mutate.Semantic(top, rng, cfg)
		if mutant == nil || len(applied) == 0 {
			mutant = mutate.Cosmetic(top, rng)
		}
		// Incorrect solutions also vary cosmetically.
		mod = mutate.Cosmetic(mutant, rng)
	}
	return Response{
		Code:            printModuleSource(c.golden[req.TaskID], mod),
		Reasoning:       reasoning,
		ReasoningTokens: tokens,
	}, nil
}

// Refine implements Client: the reasoning-augmented repair call. Focused
// prompts (non-empty FocusHint) raise the success probability — this is the
// paper's core claim that sharpening the model's attention on a concrete
// inconsistency beats blind resampling.
func (c *SimClient) Refine(ctx context.Context, req RefineRequest) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	task, ok := c.tasks[req.TaskID]
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownTask, req.TaskID)
	}
	rng := c.rngFor("refine", req.TaskID, itoa(req.SampleIndex), req.FocusHint,
		fingerprint(req.CandidateA), fingerprint(req.CandidateB))
	if rng.Float64() < c.profile.PTransient {
		return Response{}, fmt.Errorf("%w: simulated rate limit", ErrTransient)
	}

	// Refinement reasons inside the sweet spot by construction: the prompt
	// anchors the model on two concrete implementations.
	u := 0.25 + 0.3*rng.Float64()
	tokens := c.profile.ReasoningTokens(task.Difficulty, u)

	success := c.profile.RefineSkill * (1 - 0.45*c.profile.DiffScale*task.Difficulty)
	if req.FocusHint != "" {
		success += 0.18
	}
	top := c.golden[req.TaskID].FindModule(eval.TopModule)
	var mod *ast.Module
	if rng.Float64() < success {
		mod = mutate.Cosmetic(top, rng)
	} else if rng.Float64() < 0.5 && req.CandidateA != "" {
		// The model found no actionable inconsistency and restated one
		// input candidate.
		return Response{Code: req.CandidateA, Reasoning: "no inconsistency found", ReasoningTokens: tokens}, nil
	} else {
		mutant, _ := mutate.Semantic(top, rng, mutate.Config{
			Count:         1,
			CanonicalSeed: c.canonicalSeed(req.TaskID),
			CanonicalProb: c.profile.CanonicalProb * 0.6,
		})
		if mutant == nil {
			mutant = top
		}
		mod = mutate.Cosmetic(mutant, rng)
	}
	return Response{
		Code:            printModuleSource(c.golden[req.TaskID], mod),
		Reasoning:       c.reasoningText(task, tokens, rng),
		ReasoningTokens: tokens,
	}, nil
}

// JudgeOutput implements Client: predict the expected outputs for one test
// case by "reasoning from the spec". The simulation runs the hidden golden
// design and corrupts the answer with probability depending on the model's
// judging skill and the task difficulty.
func (c *SimClient) JudgeOutput(ctx context.Context, req JudgeRequest) (JudgeResponse, error) {
	if err := ctx.Err(); err != nil {
		return JudgeResponse{}, err
	}
	task, ok := c.tasks[req.TaskID]
	if !ok {
		return JudgeResponse{}, fmt.Errorf("%w: %q", ErrUnknownTask, req.TaskID)
	}
	rng := c.rngFor("judge", req.TaskID, itoa(req.SampleIndex))
	if rng.Float64() < c.profile.PTransient {
		return JudgeResponse{}, fmt.Errorf("%w: simulated rate limit", ErrTransient)
	}

	st := &testbench.Stimulus{Ifc: task.Ifc, Cases: []testbench.Case{req.Case}}
	tr := testbench.Run(c.golden[req.TaskID], eval.TopModule, st)
	if tr.Err != nil || len(tr.Cases) != 1 {
		return JudgeResponse{}, fmt.Errorf("judge simulation failed: %v", tr.Err)
	}
	predicted := tr.Cases[0]

	accuracy := c.profile.JudgeSkill * (1 - 0.40*task.Difficulty)
	if rng.Float64() >= accuracy {
		corruptTrace(&predicted, rng)
	}
	return JudgeResponse{Predicted: &predicted}, nil
}

// corruptTrace flips one output bit somewhere in the trace, modeling a
// reasoning mistake.
func corruptTrace(ct *testbench.CaseTrace, rng *xrng.Rand) {
	if len(ct.Steps) == 0 {
		return
	}
	si := rng.Intn(len(ct.Steps))
	step := &ct.Steps[si]
	if len(step.Outputs) == 0 {
		return
	}
	oi := rng.Intn(len(step.Outputs))
	out := []byte(step.Outputs[oi])
	// Find bit characters after the 'b marker and flip one.
	var bitIdx []int
	marker := strings.IndexByte(string(out), 'b')
	for i := marker + 1; i >= 0 && i < len(out); i++ {
		if out[i] == '0' || out[i] == '1' {
			bitIdx = append(bitIdx, i)
		}
	}
	if len(bitIdx) == 0 {
		return
	}
	p := bitIdx[rng.Intn(len(bitIdx))]
	if out[p] == '0' {
		out[p] = '1'
	} else {
		out[p] = '0'
	}
	step.Outputs[oi] = string(out)
}

// reasoningText synthesizes a short trace summary; the token count is
// carried separately so the pipeline's density filter has real lengths
// without megabytes of filler.
func (c *SimClient) reasoningText(task eval.Task, tokens int, rng *xrng.Rand) string {
	stances := []string{
		"enumerated the interface and reset behavior",
		"worked through the timing diagram cycle by cycle",
		"derived the next-state logic from the spec",
		"checked boundary conditions and wrap-around",
		"cross-checked operator widths and signedness",
	}
	a, b := stances[rng.Intn(len(stances))], stances[rng.Intn(len(stances))]
	var sb strings.Builder
	sb.Grow(len("[ reasoning tokens] For : ; .") + 8 + len(task.ID) + len(a) + len(b))
	sb.WriteByte('[')
	sb.WriteString(strconv.Itoa(tokens))
	sb.WriteString(" reasoning tokens] For ")
	sb.WriteString(task.ID)
	sb.WriteString(": ")
	sb.WriteString(a)
	sb.WriteString("; ")
	sb.WriteString(b)
	sb.WriteByte('.')
	return sb.String()
}

// printModuleSource renders a source unit with the top module replaced by
// mod (supporting multi-module goldens).
func printModuleSource(src *ast.Source, mod *ast.Module) string {
	buf := printer.GetBuffer()
	for _, m := range src.Modules {
		if m.Name == mod.Name {
			m = mod
		}
		buf.B = printer.AppendModule(buf.B, m)
		buf.B = append(buf.B, '\n')
	}
	out := string(buf.B)
	printer.PutBuffer(buf)
	return out
}

// truncateCode produces a syntactically broken completion (the model ran out
// of output budget mid-module).
func truncateCode(code string, rng *xrng.Rand) string {
	if len(code) < 40 {
		return code[:len(code)/2]
	}
	frac := 0.35 + 0.45*rng.Float64()
	cut := int(float64(len(code)) * frac)
	return code[:cut] + "\n// ..."
}

// fingerprint hashes candidate text for RNG derivation.
func fingerprint(s string) string {
	return strconv.FormatUint(fnvAdd(sim.FNVOffset64, s), 16)
}

func itoa(n int) string { return strconv.Itoa(n) }
