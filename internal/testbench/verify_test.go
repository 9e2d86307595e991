package testbench

import (
	"strings"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/serve/faultinject"
	"repro/internal/sim"
	"repro/internal/verilog/ast"
)

// seqEquivalent is schedSeqSrc plus an unused wire: a canonically distinct
// source with the golden's exact behavior, so its verdict is true.
var seqEquivalent = strings.Replace(schedSeqSrc, "    assign inv = ~q;",
	"    wire spare = 1'b0;\n    assign inv = ~q;", 1)

// fullVerdict is the verification referee: the candidate's full unmemoized
// trace, judged by FPAgrees against the reference trace.
func fullVerdict(src *ast.Source, st *Stimulus, backend Backend, golden *FPTrace) bool {
	tr := runFingerprintSolo(src, "top_module", st, backend)
	return tr.Err == nil && FPAgrees(tr, golden)
}

// TestVerifyGangMatchesFullTrace holds early-exit verification to the
// full-trace verdict for every lane kind: the reference itself, a duplicate
// pointer and a canonically distinct equivalent, a disagreeing mutant, a
// runtime-error lane, a bind failure, a missing top module, a design the
// compiler refuses — on sequential and combinational interfaces and both
// backends, plus an irregular (unscheduled) stimulus.
func TestVerifyGangMatchesFullTrace(t *testing.T) {
	irregular := &Stimulus{
		Ifc: combIfc(),
		Cases: []Case{
			{Steps: []Step{{Inputs: map[string]sim.Value{"a": sim.NewKnown(2, 1), "b": sim.NewKnown(1, 0)}}}},
			{Steps: []Step{{Inputs: map[string]sim.Value{"a": sim.NewKnown(2, 3)}}}}, // b missing
		},
	}
	for _, tc := range []struct {
		name   string
		st     *Stimulus
		golden string
		codes  []string
	}{
		{"sequential", NewGenerator(61).Verification(schedSeqIfc()), schedSeqSrc,
			[]string{schedSeqSrc, gangSeqVariant, seqEquivalent, gangSeqLoop, gangSeqMissingPort, schedSeqSrc, routeDynSelect}},
		{"combinational", NewGenerator(67).Verification(combIfc()), xorSrc,
			[]string{orSrc, xorSrc, gangCombLoop, xorSrc, routeDynSelect}},
		{"irregular", irregular, xorSrc, []string{xorSrc, orSrc}},
	} {
		golden := runFingerprintSolo(mustParse(t, tc.golden), "top_module", tc.st, BackendCompiled)
		if golden.Err != nil {
			t.Fatalf("%s: reference run failed: %v", tc.name, golden.Err)
		}
		srcs := make([]*ast.Source, len(tc.codes))
		for i, code := range tc.codes {
			srcs[i] = mustParse(t, code)
		}
		srcs = append(srcs, &ast.Source{}, srcs[0]) // no top module; a duplicate pointer
		for _, backend := range []Backend{BackendCompiled, BackendInterpreter} {
			want := make([]bool, len(srcs))
			nTrue := 0
			for i, src := range srcs {
				want[i] = fullVerdict(src, tc.st, backend, golden)
				if want[i] {
					nTrue++
				}
			}
			if nTrue == 0 || nTrue == len(srcs) {
				t.Fatalf("%s/%v: pool has %d of %d passing candidates; want a mix", tc.name, backend, nTrue, len(srcs))
			}
			for _, base := range []*sim.Design{nil, mustCompile(t, tc.golden)} {
				got := VerifyGang(srcs, "top_module", tc.st, backend, base, golden)
				for i := range srcs {
					if got[i] != want[i] {
						t.Fatalf("%s/%v/base=%v: candidate %d verdict %v, full trace says %v",
							tc.name, backend, base != nil, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGangLockstepRetiresDivergedLanes pins the early exit itself: with a
// reference, a lane that disagrees stops at the first disagreeing case with
// errDiverged, while an agreeing lane runs every case to a clean full trace.
func TestGangLockstepRetiresDivergedLanes(t *testing.T) {
	st := NewGenerator(83).Verification(schedSeqIfc())
	golden := runFingerprintSolo(mustParse(t, schedSeqSrc), "top_module", st, BackendCompiled)
	full := runFingerprintSolo(mustParse(t, gangSeqVariant), "top_module", st, BackendCompiled)
	first := 0
	for first < len(full.CaseFPs) && full.CaseFPs[first] == golden.CaseFPs[first] {
		first++
	}
	if first == len(full.CaseFPs) {
		t.Fatal("mutant never disagrees with the reference")
	}
	lanes := []gangLane{
		{src: mustParse(t, schedSeqSrc), d: mustCompile(t, schedSeqSrc)},
		{src: mustParse(t, gangSeqVariant), d: mustCompile(t, gangSeqVariant)},
	}
	runGangLanes(lanes, "top_module", st, BackendCompiled, golden.CaseFPs)
	fpTraceEqual(t, "agreeing lane", lanes[0].tr, golden)
	tr := lanes[1].tr
	if tr.Err == nil || !strings.HasSuffix(tr.Err.Error(), errDiverged.Error()) || len(tr.CaseFPs) != first+1 {
		t.Fatalf("diverged lane err %v after %d cases; want errDiverged after %d", tr.Err, len(tr.CaseFPs), first+1)
	}
}

func mustCompile(t *testing.T, code string) *sim.Design {
	t.Helper()
	d, err := sim.CompileCached(mustParse(t, code), "top_module")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestVerifyGangBypassesMemoAndStore: early-exit traces are truncated, so
// verification must neither publish to nor read from the fingerprint memo
// or the persistent store — no memo key for any candidate, no store
// traffic — while still returning the full-trace verdicts.
func TestVerifyGangBypassesMemoAndStore(t *testing.T) {
	store := resultstore.NewMemory(64)
	installStore(t, store)
	st := NewGenerator(71).Verification(schedSeqIfc())
	golden := runFingerprintSolo(mustParse(t, schedSeqSrc), "top_module", st, BackendCompiled)
	srcs := []*ast.Source{mustParse(t, schedSeqSrc), mustParse(t, gangSeqVariant), mustParse(t, gangSeqLoop), mustParse(t, seqEquivalent)}

	memoLen, stats := FPMemoLen(), ReadStoreStats()
	got := VerifyGang(srcs, "top_module", st, BackendCompiled, nil, golden)
	for i, src := range srcs {
		if want := fullVerdict(src, st, BackendCompiled, golden); got[i] != want {
			t.Fatalf("candidate %d verdict %v, full trace says %v", i, got[i], want)
		}
	}
	if n := FPMemoLen(); n != memoLen {
		t.Fatalf("FPMemoLen %d -> %d across verification", memoLen, n)
	}
	fpMu.Lock()
	for i, src := range srcs {
		d, err := sim.CompileCached(src, "top_module")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fpMemo[fpKey{design: d.CanonicalHash(), st: st}]; ok {
			fpMu.Unlock()
			t.Fatalf("candidate %d has a memo entry after verification", i)
		}
	}
	fpMu.Unlock()
	after := ReadStoreStats()
	if after.Hits != stats.Hits || after.Misses != stats.Misses || after.Puts != stats.Puts {
		t.Fatalf("store traffic during verification: before %+v, after %+v", stats, after)
	}
	if n, _ := store.Len(); n != 0 {
		t.Fatalf("store holds %d records after verification, want 0", n)
	}
}

// TestVerifyGangPanicIsolatedToCandidate crashes one candidate's simulation
// (sticky, so its solo fallback crashes too) in a verification gang. That
// candidate — otherwise a pass — must come out false, and every neighbour
// keeps its full-trace verdict.
func TestVerifyGangPanicIsolatedToCandidate(t *testing.T) {
	defer faultinject.Reset()
	st := NewGenerator(73).Verification(schedSeqIfc())
	golden := runFingerprintSolo(mustParse(t, schedSeqSrc), "top_module", st, BackendCompiled)
	srcs := []*ast.Source{mustParse(t, schedSeqSrc), mustParse(t, seqEquivalent), mustParse(t, gangSeqVariant), mustParse(t, schedSeqSrc)}
	const victim = 1
	if !fullVerdict(srcs[victim], st, BackendCompiled, golden) {
		t.Fatal("victim must pass when unfaulted")
	}
	faultinject.ArmFrom(faultinject.PointSimCase, sim.CanonicalKey(srcs[victim]), 2, func() {
		panic("injected simulator crash")
	})
	got := VerifyGang(srcs, "top_module", st, BackendCompiled, nil, golden)
	faultinject.Reset()
	for i, src := range srcs {
		want := i != victim && fullVerdict(src, st, BackendCompiled, golden)
		if got[i] != want {
			t.Fatalf("candidate %d verdict %v, want %v", i, got[i], want)
		}
	}
}

// TestFPMemoHitAfterCompileCacheEviction: the memo is keyed by the design's
// content hash, so a source recompiled after its compile-cache entry was
// evicted — a new *sim.Design — still hits its memo entry, solo and gang,
// without simulating.
func TestFPMemoHitAfterCompileCacheEviction(t *testing.T) {
	src := mustParse(t, gangSeqVariant)
	st := NewGenerator(79).Ranking(schedSeqIfc())
	first := RunFingerprint(src, "top_module", st, BackendCompiled)
	d1, err := sim.CompileCached(src, "top_module")
	if err != nil {
		t.Fatal(err)
	}

	prev := sim.DefaultCache
	sim.DefaultCache = sim.NewCompileCache(16) // every resident design evicted
	defer func() { sim.DefaultCache = prev }()
	d2, err := sim.CompileCached(src, "top_module")
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("recompile returned the evicted design")
	}

	pre := ReadStoreStats()
	again := RunFingerprint(src, "top_module", st, BackendCompiled)
	gang := RunFingerprintGang([]*ast.Source{src}, "top_module", st, BackendCompiled, nil)
	if post := ReadStoreStats(); post.Sims != pre.Sims {
		t.Fatalf("recompiled design simulated %d times; want memo hits", post.Sims-pre.Sims)
	}
	if again != first || gang[0] != first {
		t.Fatal("recompiled design did not get the memoized trace")
	}
}
