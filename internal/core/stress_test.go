package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ipls/internal/cid"
)

// TestPaperScaleIterations runs the protocol at the paper's evaluation
// scale — 16 trainers, 4 partitions, 2 aggregators per partition,
// merge-and-download, verifiable — for several iterations end to end,
// checking exactness and winner uniqueness every round.
func TestPaperScaleIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	trainers := make([]string, 16)
	for i := range trainers {
		trainers[i] = fmt.Sprintf("t%02d", i)
	}
	nodes := make([]string, 8)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("s%d", i)
	}
	cfg, err := NewConfig(TaskSpec{
		TaskID:                  "paper-scale",
		ModelDim:                512,
		Partitions:              4,
		Trainers:                trainers,
		AggregatorsPerPartition: 2,
		StorageNodes:            nodes,
		ProvidersPerAggregator:  3,
		Verifiable:              true,
		TTrain:                  10 * time.Second,
		TSync:                   10 * time.Second,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, net, dir, err := NewLocalStack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 3; iter++ {
		deltas, wantAvg := randomDeltas(trainers, 512, int64(100+iter))
		res, err := sess.RunIteration(context.Background(), iter, deltas, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if len(res.Incomplete) > 0 {
			t.Fatalf("iter %d incomplete: %v", iter, res.Incomplete)
		}
		if res.Detected() {
			t.Fatalf("iter %d: false positive detection", iter)
		}
		if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
			t.Fatalf("iter %d: average off by %v", iter, diff)
		}
		winners := make(map[int]int)
		merges := 0
		for _, rep := range res.Reports {
			if rep.PublishedGlobal {
				winners[rep.Partition]++
			}
			merges += rep.MergeDownloads
		}
		for p := 0; p < 4; p++ {
			if winners[p] != 1 {
				t.Fatalf("iter %d partition %d has %d winners", iter, p, winners[p])
			}
		}
		if merges == 0 {
			t.Fatalf("iter %d: merge-and-download unused", iter)
		}
		// Garbage-collect and confirm storage stays bounded.
		if _, err := sess.CleanupIteration(context.Background(), iter); err != nil {
			t.Fatal(err)
		}
	}
	// After cleanup, only global updates remain. Both aggregators of a
	// partition upload the (identical) global block from their own home
	// node, so each update has up to |A_i|·replicas holders:
	// 4 partitions x 3 iters x (2 aggregators x 2 replicas).
	blocks := 0
	for _, id := range nodes {
		nd, _ := net.Node(id)
		blocks += nd.StoredBlocks()
	}
	if blocks > 4*3*2*2 {
		t.Fatalf("storage not bounded after cleanup: %d node entries", blocks)
	}
	// And every remaining block must be a recorded global update.
	// The updates are distinct blocks, so the copies of them the nodes
	// serve must account for every stored block.
	updates := make(map[string]bool)
	for iter := 0; iter < 3; iter++ {
		for p := 0; p < 4; p++ {
			rec, err := dir.Update(context.Background(), iter, p)
			if err != nil {
				t.Fatal(err)
			}
			updates[string(rec.CID)] = true
		}
	}
	held := 0
	for _, id := range nodes {
		for c := range updates {
			if _, err := net.Get(context.Background(), id, cid.CID(c)); err == nil {
				held++
			}
		}
	}
	if held != blocks {
		t.Fatalf("nodes hold %d blocks, only %d of them global updates, after cleanup", blocks, held)
	}
	if dir.Stats().Verifications == 0 {
		t.Fatal("no verifications at paper scale")
	}
}

// TestManyIterationsSequential runs many cheap iterations to shake out
// cross-iteration state leaks.
func TestManyIterationsSequential(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) { ts.AggregatorsPerPartition = 2 })
	for iter := 0; iter < 10; iter++ {
		deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, int64(500+iter))
		res, err := sess.RunIteration(context.Background(), iter, deltas, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
			t.Fatalf("iter %d off by %v", iter, diff)
		}
		if iter%3 == 0 {
			if _, err := sess.CleanupIteration(context.Background(), iter); err != nil {
				t.Fatal(err)
			}
		}
	}
}
