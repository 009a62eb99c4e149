package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"ipls/internal/cid"
	"ipls/internal/ml"
	"ipls/internal/obs"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

// getless is a storage client whose holder reads always fail, so every
// block a session downloads must come back by content routing (Fetch,
// promoted from the network like every other capability).
type getless struct{ *storage.Network }

func (getless) Get(context.Context, string, cid.CID) ([]byte, error) {
	return nil, storage.ErrNodeDown
}

// TestEveryReadFallsBackToContentRouting runs a round in which no holder
// serves a Get. Gradients, peer partials and the global update are all
// read by content instead: the round applies with the exact average, and
// no aggregator mistakes its honest peer's partial for a cheat.
func TestEveryReadFallsBackToContentRouting(t *testing.T) {
	for _, verifiable := range []bool{false, true} {
		t.Run(fmt.Sprintf("verifiable=%v", verifiable), func(t *testing.T) {
			base, netw, dir := testStack(t, func(ts *TaskSpec) {
				ts.AggregatorsPerPartition = 2
				ts.Verifiable = verifiable
			})
			sess, err := NewSession(base.cfg, getless{netw}, dir)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			sess.SetMetrics(reg)
			deltas, want := randomDeltas(sess.cfg.Trainers, 24, 3)
			res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Incomplete) > 0 {
				t.Fatalf("incomplete partitions: %v", res.Incomplete)
			}
			if d := maxAbsDiff(res.AvgDelta, want); d > 1e-6 {
				t.Fatalf("averaged delta off by %v", d)
			}
			for id, rep := range res.Reports {
				if len(rep.InvalidPartials) > 0 {
					t.Fatalf("%s flagged %v with every holder read failing", id, rep.InvalidPartials)
				}
			}
			if res.Detected() {
				t.Fatal("an honest round reported a cheat")
			}
			if reg.Counter("failovers_total", "op", "get").Value() == 0 {
				t.Fatal(`failovers_total{op="get"} = 0: no read went by content`)
			}
		})
	}
}

// TestReadBlockFailsWhenNoReplicaSurvives checks that content routing
// cannot invent a block: with its only holder down, the read returns the
// holder's error and counts no failover.
func TestReadBlockFailsWhenNoReplicaSurvives(t *testing.T) {
	sess, netw, _ := testStack(t, nil) // one replica: the block has one home
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	ctx := context.Background()
	id, err := netw.Put(ctx, "s0", []byte("lonely"))
	if err != nil {
		t.Fatal(err)
	}
	if err := netw.Fail("s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.readBlock(ctx, nil, "s0", id); !errors.Is(err, storage.ErrNodeDown) {
		t.Fatalf("got %v, want the holder's ErrNodeDown", err)
	}
	if v := reg.Counter("failovers_total", "op", "get").Value(); v != 0 {
		t.Fatalf(`failovers_total{op="get"} = %d after a failed read`, v)
	}
}

// TestReadBlockSkipsCorruptHolder checks that a holder serving bytes
// that do not hash to the CID is a failed read like any other: the block
// comes back intact from a replica, and the failover is counted.
func TestReadBlockSkipsCorruptHolder(t *testing.T) {
	base, _, _ := testStack(t, nil)
	sess, netw, _, err := NewLocalStack(base.cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	ctx := context.Background()
	want := []byte("replicated")
	id, err := netw.Put(ctx, "s0", want)
	if err != nil {
		t.Fatal(err)
	}
	if err := netw.Corrupt("s0", id); err != nil {
		t.Fatal(err)
	}
	sc := sess.startSpan("read", "test", 0, obs.SpanContext{})
	got, err := sess.readBlock(ctx, sc, "s0", id)
	sc.end()
	if err != nil || string(got) != string(want) {
		t.Fatalf("read %q, %v; want %q from the replica", got, err, want)
	}
	if v := reg.Counter("failovers_total", "op", "get").Value(); v != 1 {
		t.Fatalf(`failovers_total{op="get"} = %d, want 1`, v)
	}
}

// chaosStack builds the crash-mid-round deployment: a verifiable session
// over three storage nodes (replication factor 2), with one provider per
// aggregator so partition 0's gradients are merged on one node.
func chaosStack(t *testing.T, taskID string) (*Session, *storage.Network) {
	t.Helper()
	cfg, err := NewConfig(TaskSpec{
		TaskID: taskID, ModelDim: 24, Partitions: 2,
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
	sess, netw, _, err := NewLocalStack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	return sess, netw
}

// crashMidRound drives one round phase by phase so the crash lands
// mid-round: the gradients are already on the doomed node when it dies,
// before the aggregators merge them.
func crashMidRound(t *testing.T, sess *Session, netw *storage.Network, crashNode string, iter int, deltas map[string][]float64) []float64 {
	t.Helper()
	cfg := sess.cfg
	ctx := context.Background()
	for _, tr := range cfg.Trainers {
		if err := sess.TrainerUpload(ctx, tr, iter, deltas[tr]); err != nil {
			t.Fatalf("iter %d upload %s: %v", iter, tr, err)
		}
	}
	if err := netw.Fail(crashNode); err != nil {
		t.Fatal(err)
	}
	for _, ref := range cfg.AllAggregators() {
		if _, err := sess.AggregatorRun(ctx, ref.ID, ref.Partition, iter, BehaviorHonest); err != nil {
			t.Fatalf("iter %d aggregator %s with %s crashed: %v", iter, ref.ID, crashNode, err)
		}
	}
	avg, err := sess.TrainerCollect(ctx, iter)
	if err != nil {
		t.Fatalf("iter %d collect: %v", iter, err)
	}
	return avg
}

// TestChaosCrashMidRoundConverges is the end-to-end recovery scenario:
// the provider node crashes in the middle of a round, after the trainers
// uploaded and before the aggregator merged. The session must complete
// every iteration with the exact averaged model, by reading the crashed
// provider's blocks from their replicas, and the failure must be visible
// in the failover metrics.
func TestChaosCrashMidRoundConverges(t *testing.T) {
	sess, netw := chaosStack(t, "chaos")
	cfg := sess.cfg
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)

	// The node the fault plan kills: where partition 0's trainers upload,
	// so the aggregator's merge-and-download must degrade.
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
			avg = crashMidRound(t, sess, netw, crashNode, iter, deltas)
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
	if reg.Counter("failovers_total", "op", "merge_get").Value() == 0 {
		t.Fatal("no degraded merge recorded despite a crashed provider")
	}
}

// TestChaosCrashedRoundBreakdownStaysValid reruns the crash-mid-round
// scenario with span collection on and asserts the observability contract
// holds through failover: every span closes (End not before Start, both
// set), and every iteration — including the one that read from replicas
// — folds into a critical-path breakdown whose phase durations sum
// exactly to the iteration latency. A span leaked open by an error path
// would surface here as a zero End or a phase/latency mismatch.
func TestChaosCrashedRoundBreakdownStaysValid(t *testing.T) {
	sess, netw := chaosStack(t, "chaos-spans")
	cfg := sess.cfg
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
			crashMidRound(t, sess, netw, crashNode, iter, deltas)
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

// newRejoinTask builds an ML training task over six replicated storage
// nodes with rendezvous placement, whose session reaches storage and the
// directory directly — the topology the churn chaos scenarios below
// crash parts of. reg, when set, receives the session's metrics.
func newRejoinTask(t *testing.T, reg *obs.Registry) (*Task, *storage.Network, *ml.Dataset) {
	t.Helper()
	const trainers = 8
	m := ml.NewLogistic(4, 4)
	data := ml.Blobs(480, 4, 4, 0.8, 77)
	names := make([]string, trainers)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	stores := make([]string, 6)
	for i := range stores {
		stores[i] = fmt.Sprintf("ipfs-%02d", i)
	}
	cfg, err := NewConfig(TaskSpec{
		TaskID:                  "churn-chaos",
		ModelDim:                m.Dim(),
		Partitions:              2,
		Trainers:                names,
		AggregatorsPerPartition: 1,
		StorageNodes:            stores,
		TTrain:                  400 * time.Millisecond,
		TSync:                   5 * time.Second,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, netw, _, err := NewLocalStack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	netw.SetPlacement(storage.PlacementRendezvous)
	sess.SetMetrics(reg)
	splits, err := data.SplitIID(trainers, 78)
	if err != nil {
		t.Fatal(err)
	}
	locals := make(map[string]*ml.Dataset, trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	sgd := ml.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}
	task, err := NewTask(sess, m, locals, sgd, m.Params())
	if err != nil {
		t.Fatal(err)
	}
	return task, netw, data
}

// TestChaosTrainerRejoinRestoresFromCheckpoint is the rejoin-path chaos
// scenario: trainer t5 crashes in round 1 and rejoins in round 2,
// bootstrapping from the latest checkpoint DAG, while an independent
// transient storage fault (ipfs-04 down for rounds 1-2) is live across
// the same rounds. The session must complete every round, the rejoin
// must ride exactly one checkpoint bootstrap, replication must be whole
// after the final repair scan, and the final model must match a
// fault-free reference run within tolerance. The closing Restore proves
// the on-DAG checkpoint reproduces the trained model bit-for-bit.
func TestChaosTrainerRejoinRestoresFromCheckpoint(t *testing.T) {
	const rounds = 4
	ctx := context.Background()

	// Reference: the identical task with no churn and no faults. Trainer
	// SGD is seeded per (round, trainer), so the runs differ only by the
	// churn below.
	ref, _, data := newRejoinTask(t, nil)
	for round := 0; round < rounds; round++ {
		metrics, res, err := ref.RunRound(ctx, RoundOptions{})
		if err != nil {
			t.Fatalf("reference round %d: %v", round, err)
		}
		if !metrics.Applied {
			t.Fatalf("reference round %d not applied (incomplete %v)", round, res.Incomplete)
		}
	}

	reg := obs.NewRegistry()
	task, netw, _ := newRejoinTask(t, reg)
	netw.SetMetrics(reg)
	plan, err := scenario.Parse("crash:ipfs-04@iter1,recover:ipfs-04@iter3,crash:t5@iter1,rejoin:t5@iter2")
	if err != nil {
		t.Fatal(err)
	}
	runner := NewScenarioRunner(task, netw, plan)
	runner.SetMetrics(reg)
	for round := 0; round < rounds; round++ {
		metrics, res, applied, err := runner.RunRound(ctx)
		if err != nil {
			t.Fatalf("round %d (churn %v): %v", round, applied, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied (churn %v, incomplete %v)", round, applied, res.Incomplete)
		}
	}
	if task.Round() != rounds {
		t.Fatalf("completed %d rounds, want %d", task.Round(), rounds)
	}
	if got := reg.Counter("trainer_bootstraps_total").Value(); got != 1 {
		t.Fatalf("trainer_bootstraps_total = %d, want 1 (the t5 rejoin)", got)
	}
	if got := len(netw.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks under-replicated after the final repair scan", got)
	}

	// One missed trainer-round must not knock the model off the
	// fault-free trajectory: the global averages re-absorb t5's share
	// once it is back.
	refAcc, _, err := ref.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	acc, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("churned run did not converge: accuracy %v", acc)
	}
	if d := math.Abs(acc - refAcc); d > 0.05 {
		t.Fatalf("accuracy drifted %v from the fault-free run (%v vs %v)", d, acc, refAcc)
	}
	if d := maxAbsDiff(task.Global(), ref.Global()); d > 0.2 {
		t.Fatalf("final model drifted %v (L∞) from the fault-free run", d)
	}

	// The runner checkpoints after every round, so restoring the latest
	// checkpoint from the DAG must reproduce the final global exactly.
	ckpt, ok := runner.Checkpoint()
	if !ok {
		t.Fatal("runner took no checkpoint")
	}
	final := append([]float64(nil), task.Global()...)
	live := netw.LiveNodes()
	if len(live) == 0 {
		t.Fatal("no live storage node to restore from")
	}
	restored, err := LoadCheckpoint(ctx, netw, live[0], ckpt)
	if err != nil {
		t.Fatalf("restore from checkpoint %s: %v", ckpt.CID.Short(), err)
	}
	if len(restored) != len(final) || maxAbsDiff(restored, final) != 0 {
		t.Fatal("restored model differs from trained model")
	}
}

// TestChaosStorageFaultWindows runs README's former -faults example
// through the scenario runner over the bare network: a flaky node in
// round 0, a slow node in round 1 (single-iteration windows cover that
// round only), and a storage crash across rounds 2-3. Uploads move to
// another node and reads go by content while a node fails, so every
// round applies, and the injections land in plan order with their
// clearing edges.
func TestChaosStorageFaultWindows(t *testing.T) {
	reg := obs.NewRegistry()
	task, netw, _ := newRejoinTask(t, reg)
	netw.SetMetrics(reg)
	netw.SetFaultSeed(42)
	plan, err := scenario.Parse("crash:ipfs-01@iter2,recover:ipfs-01@iter4,slow:ipfs-00@iter1:50ms,flaky:ipfs-02@iter0:0.3")
	if err != nil {
		t.Fatal(err)
	}
	runner := NewScenarioRunner(task, netw, plan)
	want := [][]string{
		{"flaky ipfs-02 p=0.3"},
		{"slow ipfs-00 by 50ms", "flaky ipfs-02 p=0"},
		{"crash ipfs-01", "slow ipfs-00 by 0s"},
		nil,
		{"rejoin ipfs-01 (datastore intact)"},
	}
	ctx := context.Background()
	for round := range want {
		metrics, res, applied, err := runner.RunRound(ctx)
		if err != nil {
			t.Fatalf("round %d (%v): %v", round, applied, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied (%v, incomplete %v)", round, applied, res.Incomplete)
		}
		if fmt.Sprint(applied) != fmt.Sprint(want[round]) {
			t.Fatalf("round %d applied %q, want %q", round, applied, want[round])
		}
	}
	var failovers int64
	for _, op := range []string{"put", "get", "merge_get"} {
		failovers += reg.Counter("failovers_total", "op", op).Value()
	}
	if failovers == 0 {
		t.Fatal("failovers_total = 0: the flaky and crashed rounds should have cost failovers")
	}
	if undone, err := runner.Finish(ctx); err != nil || len(undone) != 0 {
		t.Fatalf("Finish = %q, %v; every window had closed", undone, err)
	}
	if got := len(netw.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks under-replicated after the final repair scan", got)
	}
}
