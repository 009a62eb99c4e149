//go:build !race

package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestPlainRoundAllocationBudget: a plain round moves its blocks as the
// wire bytes from quantize to dequantize, so what it allocates is about
// the bytes it stores and downloads, not a big.Int per element per hop.
// The shape is the plain benchmark's: 8 trainers, 4 partitions with 2
// aggregators each, 2 merge-and-download providers per aggregator, and a
// 32 768-parameter model. Every round uploads fresh blocks, as there, so
// the store never dedups. The race detector's instrumentation allocates,
// hence the build tag.
func TestPlainRoundAllocationBudget(t *testing.T) {
	const (
		dim      = 32768
		warmup   = 3
		measured = 5
		budgetMB = 35.0
	)
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.ModelDim = dim
		ts.Partitions = 4
		ts.AggregatorsPerPartition = 2
		ts.ProvidersPerAggregator = 2
		ts.StorageNodes = []string{"ipfs-00", "ipfs-01", "ipfs-02", "ipfs-03"}
		// Aggregators are dealt trainers alternately and a trainer's
		// provider follows the parity of its number, so this order gives
		// each aggregator two gradients on each of its providers.
		ts.Trainers = nil
		for _, n := range []int{0, 2, 1, 3, 4, 6, 5, 7} {
			ts.Trainers = append(ts.Trainers, fmt.Sprintf("trainer-%02d", n))
		}
	})
	// Round r hands each trainer its base vector rotated by r elements:
	// a view, so building the round's deltas allocates only the map.
	rng := rand.New(rand.NewSource(47))
	doubled := make([][]float64, len(sess.cfg.Trainers))
	for i := range doubled {
		doubled[i] = make([]float64, 2*dim)
		for j := 0; j < dim; j++ {
			doubled[i][j] = rng.NormFloat64()
			doubled[i][j+dim] = doubled[i][j]
		}
	}
	ctx := context.Background()
	round := func(iter int) {
		deltas := make(map[string][]float64, len(doubled))
		for i, tr := range sess.cfg.Trainers {
			deltas[tr] = doubled[i][iter : iter+dim]
		}
		res, err := sess.RunIteration(ctx, iter, deltas, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Incomplete) > 0 || len(res.AvgDelta) != dim {
			t.Fatalf("iter %d: incomplete partitions %v, %d averaged elements", iter, res.Incomplete, len(res.AvgDelta))
		}
		if _, err := sess.CleanupIteration(ctx, iter); err != nil {
			t.Fatal(err)
		}
	}
	for iter := 0; iter < warmup; iter++ {
		round(iter)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for iter := warmup; iter < warmup+measured; iter++ {
		round(iter)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / measured / 1e6
	t.Logf("%.1f MB and %d allocations per round", perRound, (after.Mallocs-before.Mallocs)/measured)
	if perRound > budgetMB {
		t.Errorf("a plain round allocates %.1f MB, budget %.0f MB", perRound, budgetMB)
	}
}
