package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/eval"
	"repro/internal/llm"
)

// runWithGang runs one VFocus pipeline on one task with the given gang size,
// worker count and testbench seed, and returns the full result. legacy
// selects the retained printed-trace path, which bypasses both the gang and
// the fingerprint memo — the independent referee.
func runWithGang(t *testing.T, task eval.Task, gangSize, workers int, tbSeed int64, legacy bool) *Result {
	t.Helper()
	profile, err := llm.ProfileByName("qwq-32b")
	if err != nil {
		t.Fatal(err)
	}
	client, err := llm.NewSimClient(profile, 11, []eval.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantVFocus, profile.Name)
	cfg.Samples = 20
	cfg.RetryBaseDelay = 0
	cfg.GangSize = gangSize
	cfg.Workers = workers
	cfg.TBSeed = tbSeed
	cfg.LegacyTraces = legacy
	res, err := New(client, cfg).Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRankGangMatchesLegacyReferee is the acceptance gate for gang-batched
// ranking. For each gang size a fresh testbench seed makes the gang run the
// first to ever simulate those (design, stimulus) pairs — so the gang
// genuinely drives its lanes rather than reading the fingerprint memo — and
// the retained printed-trace path (no gang, no memo) referees every pipeline
// decision.
func TestRankGangMatchesLegacyReferee(t *testing.T) {
	tasks := eval.Suite()
	for _, idx := range []int{10, 60, 120} {
		task := tasks[idx]
		for _, gangSize := range []int{2, DefaultGangSize, 64} {
			seed := int64(7000 + 10*idx + gangSize)
			gang := runWithGang(t, task, gangSize, 4, seed, false)
			legacy := runWithGang(t, task, 1, 1, seed, true)
			assertSameDecisions(t, task.ID, legacy, gang)
		}
	}
}

// TestRankGangSizeDeterministic crosses gang sizes with worker counts on one
// shared stimulus: every combination must produce a bit-identical result
// (the memo may satisfy repeat runs, but batch partitioning, worker pickup
// and result assembly all still run per configuration).
func TestRankGangSizeDeterministic(t *testing.T) {
	task := eval.Suite()[30]
	ref := runWithGang(t, task, 1, 1, 8117, false)
	for _, gangSize := range []int{2, DefaultGangSize, 64} {
		for _, workers := range []int{1, 4} {
			got := runWithGang(t, task, gangSize, workers, 8117, false)
			if got.Final != ref.Final || got.FinalIndex != ref.FinalIndex {
				t.Fatalf("final pick diverges with GangSize=%d Workers=%d", gangSize, workers)
			}
			if !reflect.DeepEqual(got.Clusters, ref.Clusters) {
				t.Fatalf("clusters diverge with GangSize=%d Workers=%d", gangSize, workers)
			}
			if got.Stats != ref.Stats {
				t.Fatalf("stats diverge with GangSize=%d Workers=%d: %+v vs %+v",
					gangSize, workers, ref.Stats, got.Stats)
			}
		}
	}
}
