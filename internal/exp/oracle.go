// Package exp implements the paper's experiments: Table I (framework
// comparison), Fig. 3 (pass rate versus normalized reasoning length) and
// Fig. 4 (pass@1 versus sample count), plus the ablation studies listed in
// DESIGN.md. Each experiment is a pure function of its config and seeds.
package exp

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"

	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// oracleBackend note: golden traces and candidate traces always run on the
// same backend, so verification compares like with like.

// ErrExperiment wraps experiment-level failures.
var ErrExperiment = errors.New("experiment failed")

// Oracle scores candidate code against a task's golden design under a dense
// verification testbench — the role the VerilogEval reference testbenches
// play in the paper. Golden fingerprints are computed once per task and
// cached. Verification compares fingerprints on the streaming path by
// default (the dense benches made verification the largest remaining trace
// producer); LegacyTraces retains full printed traces instead, with
// identical verdicts. The oracle is safe for concurrent use.
type Oracle struct {
	seed int64
	// Backend selects the simulation engine (zero value: compiled).
	Backend testbench.Backend
	// LegacyTraces forces verification onto the retained printed-trace
	// path (the differential referee for the fingerprint path). Set it
	// before the first Verify: tasks prepared earlier have no retained
	// golden trace, so they keep comparing fingerprints (same verdicts).
	LegacyTraces bool

	mu       sync.Mutex
	tasks    map[string]eval.Task
	prepared map[string]*goldenPrep
	verdicts map[verdictKey]bool
}

// goldenPrep is one task's verification setup, computed once: the stimulus,
// the golden fingerprints (plus the golden printed trace on the legacy path)
// and the compiled golden that candidate batches delta-compile against.
type goldenPrep struct {
	once     sync.Once
	st       *testbench.Stimulus
	golden   *testbench.FPTrace
	goldenTr *testbench.Trace
	base     *sim.Design
	err      error
}

// verdictKey caches verification results by task and candidate text hash
// (candidate generation is deterministic, so identical code recurs across
// pipeline variants).
type verdictKey struct {
	taskID string
	code   uint64
}

// NewOracle builds an oracle over the given tasks.
func NewOracle(tasks []eval.Task, seed int64) *Oracle {
	o := &Oracle{
		seed:     seed,
		tasks:    make(map[string]eval.Task, len(tasks)),
		prepared: make(map[string]*goldenPrep, len(tasks)),
		verdicts: make(map[verdictKey]bool),
	}
	for _, t := range tasks {
		o.tasks[t.ID] = t
	}
	return o
}

// prepare lazily computes a task's verification setup. It is single-flight
// per task and runs the golden work outside o.mu, so a batch preparing one
// task never stalls batches of other tasks; concurrent callers for the same
// task wait for the one computation and all see its result, error included.
func (o *Oracle) prepare(taskID string) (*goldenPrep, error) {
	o.mu.Lock()
	task, ok := o.tasks[taskID]
	gp := o.prepared[taskID]
	if ok && gp == nil {
		gp = &goldenPrep{}
		o.prepared[taskID] = gp
	}
	o.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: unknown task %q", ErrExperiment, taskID)
	}
	gp.once.Do(func() {
		// If the golden work panics, later callers get this error rather
		// than a half-filled setup.
		gp.err = fmt.Errorf("%w: golden preparation for %q did not complete", ErrExperiment, taskID)
		gp.err = o.prepareGolden(gp, task)
	})
	if gp.err != nil {
		return nil, gp.err
	}
	return gp, nil
}

// prepareGolden fills gp's stimulus, golden traces and delta base for task.
func (o *Oracle) prepareGolden(gp *goldenPrep, task eval.Task) error {
	st := testbench.VerificationCached(o.seed+int64(task.Index), task.Ifc)
	src, err := eval.ParseCached(task.Golden)
	if err != nil {
		return fmt.Errorf("%w: golden parse: %v", ErrExperiment, err)
	}
	var golden *testbench.FPTrace
	var goldenTr *testbench.Trace
	if o.LegacyTraces {
		goldenTr = testbench.RunBackend(src, eval.TopModule, st, o.Backend)
		if goldenTr.Err != nil {
			return fmt.Errorf("%w: golden simulation: %v", ErrExperiment, goldenTr.Err)
		}
		// The cached trace is compared by many goroutines at once, so its
		// lazy fingerprint memo must be filled before publication.
		goldenTr.Warm()
		golden = goldenTr.FP() // same values, no second simulation
	} else {
		golden = testbench.RunFingerprint(src, eval.TopModule, st, o.Backend)
		if golden.Err != nil {
			return fmt.Errorf("%w: golden simulation: %v", ErrExperiment, golden.Err)
		}
	}
	golden.Fingerprint() // warm the memo before concurrent reads
	if o.Backend != testbench.BackendInterpreter {
		// The compiled golden is the delta-compilation base for candidate
		// batches: mutants share its netlist layout, so their unmutated
		// processes splice in instead of re-lowering.
		if d, derr := sim.CompileCached(src, eval.TopModule); derr == nil {
			gp.base = d
		}
	}
	gp.st, gp.golden, gp.goldenTr = st, golden, goldenTr
	return nil
}

// Verify reports whether candidate code is functionally correct for the
// task: it must parse and match the golden behavior on every verification
// case. It is a one-candidate VerifyBatch.
func (o *Oracle) Verify(taskID, code string) (bool, error) {
	v, err := o.VerifyBatch(taskID, []string{code})
	if err != nil {
		return false, err
	}
	return v[0], nil
}

// VerifyBatch scores a batch of candidates for one task: each verdict is
// whether the candidate parses, contains the top module, and matches the
// golden fingerprints on every verification case. All unverified parseable
// candidates are simulated as one gang over the shared dense verification
// stimulus (testbench.VerifyGang), with the compiled golden as
// delta-compilation base; a candidate stops simulating at its first case
// that disagrees with the golden. The legacy-trace referee path stays
// per-candidate on full printed traces.
func (o *Oracle) VerifyBatch(taskID string, codes []string) ([]bool, error) {
	out := make([]bool, len(codes))
	keys := make([]verdictKey, len(codes))
	pending := make([]int, 0, len(codes)) // first index per unresolved unique key
	seen := make(map[verdictKey]bool, len(codes))
	o.mu.Lock()
	for i, code := range codes {
		keys[i] = verdictKey{taskID: taskID, code: hashCode(code)}
		if _, hit := o.verdicts[keys[i]]; !hit && !seen[keys[i]] {
			seen[keys[i]] = true
			pending = append(pending, i)
		}
	}
	o.mu.Unlock()

	if len(pending) > 0 {
		gp, err := o.prepare(taskID)
		if err != nil {
			return nil, err
		}
		st := gp.st
		verdicts := make([]bool, len(pending))
		if o.LegacyTraces && gp.goldenTr != nil {
			for k, i := range pending {
				src := mustParse(codes[i])
				if src == nil {
					continue // unparseable: verdict stays false
				}
				tr := testbench.RunBackend(src, eval.TopModule, st, o.Backend)
				verdicts[k] = tr.Err == nil && testbench.Agrees(tr, gp.goldenTr)
			}
		} else {
			gangSrcs := make([]*ast.Source, 0, len(pending))
			gangAt := make([]int, 0, len(pending))
			for k, i := range pending {
				if src := mustParse(codes[i]); src != nil {
					gangSrcs = append(gangSrcs, src)
					gangAt = append(gangAt, k)
				}
			}
			ok := testbench.VerifyGang(gangSrcs, eval.TopModule, st, o.Backend, gp.base, gp.golden)
			for j, k := range gangAt {
				verdicts[k] = ok[j]
			}
		}
		o.mu.Lock()
		for k, i := range pending {
			o.verdicts[keys[i]] = verdicts[k]
		}
		o.mu.Unlock()
	}

	o.mu.Lock()
	for i := range codes {
		out[i] = o.verdicts[keys[i]]
	}
	o.mu.Unlock()
	return out, nil
}

// mustParse returns the parsed source when the code is a valid candidate
// containing the top module, else nil (verdict false).
func mustParse(code string) *ast.Source {
	src, err := eval.ParseCached(code)
	if err != nil || src.FindModule(eval.TopModule) == nil {
		return nil
	}
	return src
}

// codeSeed seeds hashCode. Verdict keys never leave the process, so a
// per-process seed is fine.
var codeSeed = maphash.MakeSeed()

func hashCode(code string) uint64 {
	return maphash.String(codeSeed, code)
}
