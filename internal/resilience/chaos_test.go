package resilience_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/obs"
	"ipls/internal/resilience"
	"ipls/internal/scalar"
	"ipls/internal/storage"
)

// TestChaosCrashMidRoundConverges is the end-to-end resilience scenario: a
// multi-iteration verifiable session over three storage nodes (replication
// factor 2) in which the provider node crashes in the middle of a round —
// after the trainers uploaded, before the aggregator merged. The session
// must complete every iteration with the exact averaged model, riding on
// replica failover for the crashed provider's blocks, and the failure must
// be visible in the failover metrics.
func TestChaosCrashMidRoundConverges(t *testing.T) {
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "chaos", ModelDim: 24, Partitions: 2,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1", "s2"},
		ProvidersPerAggregator:  1,
		Verifiable:              true,
		TTrain:                  5 * time.Second,
		TSync:                   5 * time.Second,
		PollInterval:            2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	field := scalar.NewField(cfg.Curve.N)
	netw := storage.NewNetwork(field, 2)
	for _, id := range cfg.StorageNodes {
		netw.AddNode(id)
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(params, netw)
	cfg.ApplyAssignments(dir)

	reg := obs.NewRegistry()
	pol := &resilience.Policy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Jitter:      0.2,
		RPCTimeout:  2 * time.Second,
		Seed:        11,
		Metrics:     reg,
	}
	client := resilience.Wrap(netw, field, pol)
	sess, err := core.NewSession(cfg, client.Storage(), resilience.WrapDirectory(dir, pol))
	if err != nil {
		t.Fatal(err)
	}

	// The node the fault plan kills: where partition 0's trainers upload,
	// so the aggregator's merge-and-download must fail over.
	crashNode := cfg.UploadNode(0, cfg.Trainers[0])
	const iters = 5
	const crashIter = 2

	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for iter := 0; iter < iters; iter++ {
		deltas := make(map[string][]float64)
		want := make([]float64, cfg.Spec.Dim)
		for _, tr := range cfg.Trainers {
			d := make([]float64, cfg.Spec.Dim)
			for i := range d {
				d[i] = rng.NormFloat64()
				want[i] += d[i] / float64(len(cfg.Trainers))
			}
			deltas[tr] = d
		}

		var avg []float64
		if iter == crashIter {
			// Drive the round phase by phase so the crash lands mid-round:
			// the gradients are already on the doomed node when it dies.
			for _, tr := range cfg.Trainers {
				if err := sess.TrainerUpload(ctx, tr, iter, deltas[tr]); err != nil {
					t.Fatalf("iter %d upload %s: %v", iter, tr, err)
				}
			}
			if err := netw.Fail(crashNode); err != nil {
				t.Fatal(err)
			}
			for _, ref := range cfg.AllAggregators() {
				if _, err := sess.AggregatorRun(ctx, ref.ID, ref.Partition, iter, core.BehaviorHonest); err != nil {
					t.Fatalf("iter %d aggregator %s with %s crashed: %v", iter, ref.ID, crashNode, err)
				}
			}
			avg, err = sess.TrainerCollect(ctx, iter)
			if err != nil {
				t.Fatalf("iter %d collect: %v", iter, err)
			}
		} else {
			res, err := sess.RunIteration(ctx, iter, deltas, nil)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if len(res.Incomplete) > 0 {
				t.Fatalf("iter %d incomplete partitions: %v", iter, res.Incomplete)
			}
			avg = res.AvgDelta
		}
		for i := range want {
			if math.Abs(avg[i]-want[i]) > 1e-6 {
				t.Fatalf("iter %d param %d: got %v want %v", iter, i, avg[i], want[i])
			}
		}
	}

	var failovers int64
	for _, op := range []string{"get", "merge_get"} {
		failovers += reg.Counter("failovers_total", "op", op).Value()
	}
	if failovers == 0 {
		t.Fatalf("session survived the crash of %s without a single recorded failover", crashNode)
	}
	var retries int64
	for _, op := range []string{"put", "get", "merge_get", "fetch"} {
		retries += reg.Counter("rpc_retries_total", "op", op).Value()
	}
	if retries == 0 {
		t.Fatal("no retries recorded despite a crashed storage node")
	}
}

// TestChaosCrashedRoundBreakdownStaysValid reruns the crash-mid-round
// scenario with span collection on and asserts the observability contract
// holds through failover: every span closes (End not before Start, both
// set), and every iteration — including the one that rode replica
// failover — folds into a critical-path breakdown whose phase durations
// sum exactly to the iteration latency. A span leaked open by an error
// path would surface here as a zero End or a phase/latency mismatch.
func TestChaosCrashedRoundBreakdownStaysValid(t *testing.T) {
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "chaos-spans", ModelDim: 24, Partitions: 2,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1", "s2"},
		ProvidersPerAggregator:  1,
		Verifiable:              true,
		TTrain:                  5 * time.Second,
		TSync:                   5 * time.Second,
		PollInterval:            2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	field := scalar.NewField(cfg.Curve.N)
	netw := storage.NewNetwork(field, 2)
	for _, id := range cfg.StorageNodes {
		netw.AddNode(id)
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(params, netw)
	cfg.ApplyAssignments(dir)

	pol := &resilience.Policy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Jitter:      0.2,
		RPCTimeout:  2 * time.Second,
		Seed:        11,
	}
	client := resilience.Wrap(netw, field, pol)
	sess, err := core.NewSession(cfg, client.Storage(), resilience.WrapDirectory(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewSpanCollector(0)
	sess.SetSpans(col)
	netw.SetSpans(col)

	crashNode := cfg.UploadNode(0, cfg.Trainers[0])
	const iters = 3
	const crashIter = 1

	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for iter := 0; iter < iters; iter++ {
		deltas := make(map[string][]float64)
		for _, tr := range cfg.Trainers {
			d := make([]float64, cfg.Spec.Dim)
			for i := range d {
				d[i] = rng.NormFloat64()
			}
			deltas[tr] = d
		}
		if iter == crashIter {
			for _, tr := range cfg.Trainers {
				if err := sess.TrainerUpload(ctx, tr, iter, deltas[tr]); err != nil {
					t.Fatalf("iter %d upload %s: %v", iter, tr, err)
				}
			}
			if err := netw.Fail(crashNode); err != nil {
				t.Fatal(err)
			}
			for _, ref := range cfg.AllAggregators() {
				if _, err := sess.AggregatorRun(ctx, ref.ID, ref.Partition, iter, core.BehaviorHonest); err != nil {
					t.Fatalf("iter %d aggregator %s: %v", iter, ref.ID, err)
				}
			}
			if _, err := sess.TrainerCollect(ctx, iter); err != nil {
				t.Fatalf("iter %d collect: %v", iter, err)
			}
		} else {
			res, err := sess.RunIteration(ctx, iter, deltas, nil)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if len(res.Incomplete) > 0 {
				t.Fatalf("iter %d incomplete partitions: %v", iter, res.Incomplete)
			}
		}
	}

	spans := col.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}
	for _, sp := range spans {
		if sp.Start.IsZero() || sp.End.IsZero() {
			t.Fatalf("span %s (%s) not closed: start=%v end=%v", sp.Name, sp.Actor, sp.Start, sp.End)
		}
		if sp.End.Before(sp.Start) {
			t.Fatalf("span %s (%s) ends before it starts: %v -> %v", sp.Name, sp.Actor, sp.Start, sp.End)
		}
	}

	breakdowns := obs.BreakdownTrace(spans)
	seen := make(map[int]bool)
	for _, b := range breakdowns {
		if b.Session != cfg.TaskID {
			continue
		}
		seen[b.Iter] = true
		if b.Latency <= 0 {
			t.Fatalf("iter %d: non-positive latency %v", b.Iter, b.Latency)
		}
		var sum time.Duration
		for _, p := range b.Phases {
			if p.Duration < 0 {
				t.Fatalf("iter %d: negative phase %+v", b.Iter, p)
			}
			sum += p.Duration
		}
		if sum != b.Latency {
			t.Fatalf("iter %d: phase sum %v != latency %v", b.Iter, sum, b.Latency)
		}
	}
	for iter := 0; iter < iters; iter++ {
		if !seen[iter] {
			t.Fatalf("no breakdown for iteration %d (crash iteration was %d)", iter, crashIter)
		}
	}
}
