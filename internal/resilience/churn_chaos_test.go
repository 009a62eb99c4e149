package resilience_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/ml"
	"ipls/internal/obs"
	"ipls/internal/resilience"
	"ipls/internal/scalar"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

// newRejoinTask builds an ML training task whose session reaches storage
// and the directory through the resilience layer, over six replicated
// storage nodes with rendezvous placement — the topology the churn
// chaos scenarios below crash parts of. attempts bounds the retries per
// operation.
func newRejoinTask(t *testing.T, reg *obs.Registry, attempts int) (*core.Task, *storage.Network, *ml.Dataset) {
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
	cfg, err := core.NewConfig(core.TaskSpec{
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
	field := scalar.NewField(cfg.Curve.N)
	netw := storage.NewNetwork(field, 2)
	for _, id := range cfg.StorageNodes {
		netw.AddNode(id)
	}
	netw.SetPlacement(storage.PlacementRendezvous)
	params, err := cfg.PedersenParams()
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(params, netw)
	cfg.ApplyAssignments(dir)
	pol := &resilience.Policy{
		MaxAttempts: attempts,
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
	splits, err := data.SplitIID(trainers, 78)
	if err != nil {
		t.Fatal(err)
	}
	locals := make(map[string]*ml.Dataset, trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	sgd := ml.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}
	task, err := core.NewTask(sess, m, locals, sgd, m.Params())
	if err != nil {
		t.Fatal(err)
	}
	return task, netw, data
}

func linfDiff(a, b []float64) float64 {
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
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
	ref, _, data := newRejoinTask(t, nil, 3)
	for round := 0; round < rounds; round++ {
		metrics, res, err := ref.RunRound(ctx, nil)
		if err != nil {
			t.Fatalf("reference round %d: %v", round, err)
		}
		if !metrics.Applied {
			t.Fatalf("reference round %d not applied (incomplete %v)", round, res.Incomplete)
		}
	}

	reg := obs.NewRegistry()
	task, netw, _ := newRejoinTask(t, reg, 3)
	netw.SetMetrics(reg)
	plan, err := scenario.Parse("crash:ipfs-04@iter1,recover:ipfs-04@iter3,crash:t5@iter1,rejoin:t5@iter2")
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewScenarioRunner(task, netw, plan)
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
	if d := linfDiff(task.Global(), ref.Global()); d > 0.2 {
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
	if err := task.Restore(ctx, netw, live[0], ckpt); err != nil {
		t.Fatalf("restore from checkpoint %s: %v", ckpt.CID.Short(), err)
	}
	if d := linfDiff(task.Global(), final); d != 0 {
		t.Fatalf("restored model differs from trained model by %v", d)
	}
}

// TestChaosStorageFaultWindows runs README's former -faults example
// through the scenario runner over the resilience layer: a flaky node
// in round 0, a slow node in round 1 (single-iteration windows cover
// that round only), and a storage crash across rounds 2-3. Retries
// absorb the flaky round (twelve attempts put a 0.3-flaky operation's
// exhaustion odds below one in a million), every round applies, and the
// injections land in plan order with their clearing edges.
func TestChaosStorageFaultWindows(t *testing.T) {
	reg := obs.NewRegistry()
	task, netw, _ := newRejoinTask(t, reg, 12)
	netw.SetMetrics(reg)
	netw.SetFaultSeed(42)
	plan, err := scenario.Parse("crash:ipfs-01@iter2,recover:ipfs-01@iter4,slow:ipfs-00@iter1:50ms,flaky:ipfs-02@iter0:0.3")
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewScenarioRunner(task, netw, plan)
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
	var retries int64
	for _, op := range []string{"put", "get", "merge_get", "fetch"} {
		retries += reg.Counter("rpc_retries_total", "op", op).Value()
	}
	if retries == 0 {
		t.Fatal("rpc_retries_total = 0: the flaky round should have cost retries")
	}
	if undone, err := runner.Finish(ctx); err != nil || len(undone) != 0 {
		t.Fatalf("Finish = %q, %v; every window had closed", undone, err)
	}
	if got := len(netw.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks under-replicated after the final repair scan", got)
	}
}
