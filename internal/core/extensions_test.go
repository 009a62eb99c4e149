package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"ipls/internal/directory"
	"ipls/internal/storage"
)

// TestLateGradientRejected verifies the §III-D schedule: gradients
// published after t_train are refused, so the partition accumulator cannot
// drift from what aggregators collected.
func TestLateGradientRejected(t *testing.T) {
	sess, _, dir := testStack(t, func(ts *TaskSpec) { ts.Verifiable = true })
	// Freeze the directory's clock, then set a deadline in its past.
	base := time.Now()
	dir.SetClock(func() time.Time { return base })
	dir.SetSchedule(0, base.Add(-time.Second))
	err := sess.TrainerUpload(context.Background(), "t0", 0, make([]float64, 24))
	if !errors.Is(err, directory.ErrTooLate) {
		t.Fatalf("expected ErrTooLate, got %v", err)
	}
	// Future deadline: accepted.
	dir.SetSchedule(1, base.Add(time.Hour))
	if err := sess.TrainerUpload(context.Background(), "t0", 1, make([]float64, 24)); err != nil {
		t.Fatal(err)
	}
}

// TestRunIterationAnnouncesSchedule checks RunIteration registers t_train
// with schedule-capable directories, and that a straggler publishing after
// the round is rejected.
func TestRunIterationAnnouncesSchedule(t *testing.T) {
	sess, _, dir := testStack(t, func(ts *TaskSpec) {
		ts.TTrain = 50 * time.Millisecond
	})
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 20)
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}
	// A straggler trying to publish for iteration 0 after t_train.
	dir.SetClock(func() time.Time { return time.Now().Add(time.Hour) })
	err := sess.TrainerUpload(context.Background(), "latecomer", 0, make([]float64, 24))
	if !errors.Is(err, directory.ErrTooLate) {
		t.Fatalf("expected straggler rejection, got %v", err)
	}
}

// TestCheatingMergeProviderDetected verifies the §IV-B merge check: a
// provider that mis-aggregates is caught by comparing the merged block
// against the product of the constituent commitments, and the aggregator
// falls back to individual verified downloads — the round still completes
// with the correct aggregate.
func TestCheatingMergeProviderDetected(t *testing.T) {
	sess, net, _ := testStack(t, func(ts *TaskSpec) {
		ts.Verifiable = true
		ts.ProvidersPerAggregator = 1 // all of an aggregator's gradients on one node
	})
	for _, node := range sess.cfg.StorageNodes {
		if err := net.CheatMerges(node); err != nil {
			t.Fatal(err)
		}
	}
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 21)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete despite fallback: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("cheating provider corrupted the aggregate by %v", diff)
	}
	// No merge may have been accepted.
	for id, rep := range res.Reports {
		if rep.MergeDownloads != 0 {
			t.Fatalf("%s accepted a cheating merge", id)
		}
	}
}

// TestCheatingMergeUndetectedWithoutVerifiability shows the contrast: in
// plain mode the mis-aggregation flows into the model.
func TestCheatingMergeUndetectedWithoutVerifiability(t *testing.T) {
	sess, net, _ := testStack(t, func(ts *TaskSpec) {
		ts.ProvidersPerAggregator = 1
	})
	for _, node := range sess.cfg.StorageNodes {
		if err := net.CheatMerges(node); err != nil {
			t.Fatal(err)
		}
	}
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 22)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff < 1e-9 {
		t.Fatal("cheating merge had no effect — test is vacuous")
	}
}

// TestCleanupIteration verifies per-iteration garbage collection: after a
// round, gradients and partials disappear from every node while the global
// updates stay retrievable.
func TestCleanupIteration(t *testing.T) {
	sess, net, dir := testStack(t, func(ts *TaskSpec) { ts.AggregatorsPerPartition = 2 })
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 23)
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}
	before := net.TotalStoredBytes()
	removed, err := sess.CleanupIteration(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing garbage-collected")
	}
	after := net.TotalStoredBytes()
	if after >= before {
		t.Fatalf("cleanup did not shrink storage: %d -> %d", before, after)
	}
	// Global updates must survive so slow trainers can still catch up.
	if _, err := sess.TrainerCollect(context.Background(), 0); err != nil {
		t.Fatalf("updates must remain retrievable after cleanup: %v", err)
	}
	// Gradient blocks are gone.
	recs := dir.GradientsFor(context.Background(), 0, 0, "")
	if len(recs) == 0 {
		t.Fatal("directory should still list gradient records")
	}
	if _, err := net.Fetch(context.Background(), recs[0].CID); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("gradient block should be gone from the network, got %v", err)
	}
}

// TestScreeningDropsPoisonedGradient verifies the norm-screening extension:
// a trainer submitting an absurdly large delta is excluded and the average
// is computed over the remaining trainers only (the appended counters make
// the divisor come out right automatically).
func TestScreeningDropsPoisonedGradient(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) { ts.ScreenNorm = 100 })
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 24)
	// Poison t3 with a huge delta.
	poisoned := deltas["t3"]
	for i := range poisoned {
		poisoned[i] = 1e6
	}
	// Expected: average over the three honest trainers.
	want := make([]float64, 24)
	for _, tr := range []string{"t0", "t1", "t2"} {
		for i, v := range deltas[tr] {
			want[i] += v / 3
		}
	}
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	screened := false
	for _, rep := range res.Reports {
		for _, tr := range rep.ScreenedOut {
			if tr == "t3" {
				screened = true
			}
		}
	}
	if !screened {
		t.Fatal("poisoned gradient not screened out")
	}
	if diff := maxAbsDiff(res.AvgDelta, want); diff > 1e-6 {
		t.Fatalf("screened average off by %v", diff)
	}
}

// TestScreeningAllDroppedFails covers the degenerate case.
func TestScreeningAllDroppedFails(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) { ts.ScreenNorm = 1e-12 })
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 25)
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err == nil {
		t.Fatal("expected error when everything is screened out")
	}
}

// TestScreeningIncompatibleWithVerifiable pins down the documented tension.
func TestScreeningIncompatibleWithVerifiable(t *testing.T) {
	ts := baseSpec()
	ts.Verifiable = true
	ts.ScreenNorm = 1
	if _, err := NewConfig(ts); err == nil {
		t.Fatal("screening + verifiable must be rejected")
	}
	ts.Verifiable = false
	ts.ScreenNorm = -1
	if _, err := NewConfig(ts); err == nil {
		t.Fatal("negative screen norm must be rejected")
	}
}

// TestBlockNorm sanity-checks the norm computation used for screening.
func TestBlockNorm(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) { ts.ScreenNorm = 10 })
	deltas := map[string][]float64{}
	for _, tr := range sess.cfg.Trainers {
		deltas[tr] = make([]float64, 24)
	}
	deltas["t0"][0] = 3
	deltas["t0"][1] = 4 // norm 5 over the whole vector
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatal("norm-5 delta must pass a norm-10 screen")
	}
	if math.Abs(res.AvgDelta[0]-0.75) > 1e-6 {
		t.Fatalf("avg[0] = %v, want 0.75", res.AvgDelta[0])
	}
}
