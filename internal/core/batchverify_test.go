package core

import (
	"context"
	"testing"

	"ipls/internal/obs"
)

// TestBatchVerifyAcceptsHonestMerges checks that with verifiability on,
// an honest round's merged downloads are accepted through the single
// random-linear-combination batch check: the batch counter moves, no batch
// fails, merges are accepted, and the aggregate stays exact.
func TestBatchVerifyAcceptsHonestMerges(t *testing.T) {
	sess, net, _ := testStack(t, func(ts *TaskSpec) {
		ts.Verifiable = true
		ts.ProvidersPerAggregator = 1 // all of an aggregator's gradients on one node
	})
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	net.SetMetrics(reg)
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 61)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("aggregate off by %v", diff)
	}
	snap := reg.Snapshot()
	if snap.Counters["batch_verify_total"] == 0 {
		t.Fatal("batch_verify_total stayed zero with verifiable merges")
	}
	if got := snap.Counters["batch_verify_fail_total"]; got != 0 {
		t.Fatalf("batch_verify_fail_total = %d on an honest round", got)
	}
	if snap.Counters["merge_downloads_total"] == 0 {
		t.Fatal("merge_downloads_total stayed zero — merges were not accepted")
	}
	merges := 0
	for _, rep := range res.Reports {
		merges += rep.MergeDownloads
	}
	if merges == 0 {
		t.Fatal("no aggregator reported an accepted merge")
	}
}

// TestBatchVerifyFallbackOnCheat is the batch-path half of the cheating-
// provider contract: a failed batch falls back to per-group verification,
// the cheating merges are rejected, and the round still completes with
// the exact aggregate from individual downloads.
func TestBatchVerifyFallbackOnCheat(t *testing.T) {
	sess, net, _ := testStack(t, func(ts *TaskSpec) {
		ts.Verifiable = true
		ts.ProvidersPerAggregator = 1
	})
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	for _, node := range sess.cfg.StorageNodes {
		if err := net.CheatMerges(node); err != nil {
			t.Fatal(err)
		}
	}
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 62)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("cheating provider corrupted the aggregate by %v", diff)
	}
	snap := reg.Snapshot()
	if snap.Counters["batch_verify_fail_total"] == 0 {
		t.Fatal("batch_verify_fail_total stayed zero with a cheating provider")
	}
	for id, rep := range res.Reports {
		if rep.MergeDownloads != 0 {
			t.Fatalf("%s accepted a cheating merge through the batch path", id)
		}
	}
}
