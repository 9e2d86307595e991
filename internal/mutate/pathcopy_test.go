package mutate

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/printer"
	"repro/internal/xrng"
)

// semanticFullClone is the legacy mutant pipeline: deep-clone the module,
// bind closure sites on the clone (CollectSites), then choose and apply with
// the exact selection loop Semantic uses. It is the reference the clone-light
// path is held against.
func semanticFullClone(m *ast.Module, rng *xrng.Rand, cfg Config) (*ast.Module, []string) {
	clone := ast.CloneModule(m)
	sites := CollectSites(clone)
	if len(sites) == 0 {
		return nil, nil
	}
	count := cfg.Count
	if count < 1 {
		count = 1
	}
	var applied []string
	used := make(map[int]bool)
	for k := 0; k < count && len(used) < len(sites); k++ {
		var idx int
		if k == 0 && cfg.CanonicalProb > 0 && rng.Float64() < cfg.CanonicalProb {
			canon := xrng.New(uint64(cfg.CanonicalSeed))
			idx = canon.Intn(len(sites))
		} else {
			idx = rng.Intn(len(sites))
		}
		if used[idx] {
			for used[idx] {
				idx = (idx + 1) % len(sites)
			}
		}
		used[idx] = true
		sites[idx].Apply()
		applied = append(applied, sites[idx].Kind+": "+sites[idx].Desc)
	}
	return clone, applied
}

// TestPathCopyMatchesFullClone is the random mutation harness gating the
// clone-light path: across the benchmark suite, seeds, mutation counts, and
// canonical-misconception settings, path-copied mutants must print
// byte-identical source (and report identical applied ops) to full-clone
// mutants, and the golden module must come through untouched.
func TestPathCopyMatchesFullClone(t *testing.T) {
	tasks := eval.Suite()
	trials := 0
	for ti, task := range tasks {
		if ti%2 != 0 {
			continue // subsample for speed; still spans every family
		}
		_, top := goldenModule(t, task)
		before := string(printer.AppendModule(nil, top))
		for seed := uint64(0); seed < 6; seed++ {
			cfg := Config{Count: int(seed%3) + 1}
			if seed%2 == 1 {
				cfg.CanonicalSeed = int64(1000 + ti)
				cfg.CanonicalProb = 0.5
			}
			want, wantOps := semanticFullClone(top, xrng.New(seed*7+1), cfg)
			got, gotOps := Semantic(top, xrng.New(seed*7+1), cfg)
			if (want == nil) != (got == nil) {
				t.Fatalf("%s seed %d: nil mismatch (ref %v, path %v)", task.ID, seed, want == nil, got == nil)
			}
			if want == nil {
				continue
			}
			if len(wantOps) != len(gotOps) {
				t.Fatalf("%s seed %d: ops %v vs %v", task.ID, seed, wantOps, gotOps)
			}
			for i := range wantOps {
				if wantOps[i] != gotOps[i] {
					t.Fatalf("%s seed %d: op %d %q vs %q", task.ID, seed, i, wantOps[i], gotOps[i])
				}
			}
			wantSrc := string(printer.AppendModule(nil, want))
			gotSrc := string(printer.AppendModule(nil, got))
			if wantSrc != gotSrc {
				t.Fatalf("%s seed %d (ops %v): path-copied mutant diverges from full clone\n--- full clone ---\n%s\n--- path copy ---\n%s",
					task.ID, seed, wantOps, wantSrc, gotSrc)
			}
			trials++
		}
		if after := string(printer.AppendModule(nil, top)); after != before {
			t.Fatalf("%s: Semantic mutated the golden module", task.ID)
		}
	}
	t.Logf("%d mutants compared byte-identical", trials)
}

// TestPathCopySharesUntouchedSubtrees pins the point of the exercise: a
// single-site mutant must share (alias) at least one item with the golden —
// i.e. it is not a disguised full clone.
func TestPathCopySharesUntouchedSubtrees(t *testing.T) {
	task := eval.Suite()[90]
	_, top := goldenModule(t, task)
	if len(top.Items) < 2 {
		t.Skip("needs a module with several items")
	}
	mutant, _ := Semantic(top, xrng.New(3), Config{Count: 1})
	if mutant == nil {
		t.Fatal("no mutant")
	}
	shared := 0
	for i := range mutant.Items {
		if i < len(top.Items) && mutant.Items[i] == top.Items[i] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("mutant shares no items with the golden; path copy degenerated to a full clone")
	}
}

// TestSiteCacheReuse: repeated Semantic calls on one module must reuse the
// cached site collection (pointer-keyed), not re-collect.
func TestSiteCacheReuse(t *testing.T) {
	task := eval.Suite()[0]
	_, top := goldenModule(t, task)
	a := cachedSites(top)
	b := cachedSites(top)
	if a != b {
		t.Error("cachedSites did not reuse the memoized collection")
	}
	if len(a.sites) == 0 {
		t.Error("no sites collected")
	}
}
