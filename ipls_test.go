package ipls_test

import (
	"context"
	"math"
	"testing"
	"time"

	"ipls"
	"ipls/internal/core"
	"ipls/internal/identity"
	"ipls/internal/obs"
	"ipls/internal/transport"
)

// TestFacadeEndToEnd drives a complete FL job through the public API —
// config, local stack, task, rounds — with the directory authenticating
// every record against deterministic identities.
func TestFacadeEndToEnd(t *testing.T) {
	cfg, err := ipls.NewConfig(ipls.TaskSpec{
		TaskID:                  "facade",
		ModelDim:                20,
		Partitions:              4,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: 2,
		StorageNodes:            []string{"s0", "s1", "s2"},
		ProvidersPerAggregator:  1,
		Verifiable:              true,
		TTrain:                  3 * time.Second,
		TSync:                   3 * time.Second,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, net, dir, err := ipls.NewLocalStack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	net.SetPlacement(ipls.PlacementRendezvous)
	ring, reg := identity.DeterministicSetup(cfg.TaskID, cfg.ParticipantIDs())
	dir.SetRegistry(reg)
	sess.SetKeyring(ring)

	data := ipls.Blobs(240, 4, 4, 0.8, 1)
	splits, err := data.SplitIID(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	locals := map[string]*ipls.Dataset{}
	for i, tr := range cfg.Trainers {
		locals[tr] = splits[i]
	}
	m := ipls.NewLogistic(4, 4)
	task, err := ipls.NewTask(sess, m, locals,
		ipls.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}, m.Params())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		metrics, _, err := task.RunRound(context.Background(), ipls.RoundOptions{})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied", r)
		}
	}
	acc, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("facade task accuracy %v", acc)
	}
}

// TestFacadeMaliciousDetection drives the verifiable-aggregation story
// through the facade.
func TestFacadeMaliciousDetection(t *testing.T) {
	cfg, err := ipls.NewConfig(ipls.TaskSpec{
		TaskID:                  "facade-evil",
		ModelDim:                12,
		Partitions:              1,
		Trainers:                []string{"t0", "t1"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0"},
		Verifiable:              true,
		TTrain:                  2 * time.Second,
		TSync:                   400 * time.Millisecond,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, _, _, err := ipls.NewLocalStack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewSpanCollector(0)
	sess.SetSpans(col)
	deltas := map[string][]float64{"t0": make([]float64, 12), "t1": make([]float64, 12)}
	res, err := sess.RunIteration(context.Background(), 0, deltas,
		map[string]ipls.Behavior{ipls.AggregatorID(0, 0): ipls.BehaviorForgeUpdate})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected() {
		t.Fatal("facade failed to detect forged update")
	}
	// The directory's refusal of the forged update is on the span stream.
	rejected := false
	for _, s := range col.Spans() {
		if s.Name == "global_publish" && s.Attrs["outcome"] == "rejected" {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("no global_publish span with a rejected outcome")
	}
}

// TestFacadeSimulationAndBaselines exercises the evaluation surface.
func TestFacadeSimulationAndBaselines(t *testing.T) {
	res, err := ipls.Simulate(ipls.SimConfig{
		Trainers:                16,
		Partitions:              1,
		AggregatorsPerPartition: 1,
		PartitionBytes:          1_300_000,
		StorageNodes:            16,
		ProvidersPerAggregator:  4,
		BandwidthMbps:           10,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ipls.AnalyticAggregationDelay(1_300_000, 16, 4, 10, 10)
	if math.Abs(res.TotalDelay.Seconds()-want) > 0.1 {
		t.Fatalf("facade sim %v vs analytic %v", res.TotalDelay.Seconds(), want)
	}
	// Fig. 1's direct-communication baseline: every trainer ships its
	// whole update over the aggregator's one link, so at the optimal
	// provider count merge-and-download finishes first.
	direct, err := ipls.Simulate(ipls.SimConfig{
		Trainers:                16,
		Partitions:              1,
		AggregatorsPerPartition: 1,
		PartitionBytes:          1_300_000,
		StorageNodes:            16,
		BandwidthMbps:           10,
		Direct:                  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if direct.TotalDelay <= res.TotalDelay {
		t.Fatalf("direct baseline takes %v, no slower than merge-and-download's %v",
			direct.TotalDelay, res.TotalDelay)
	}
}

// TestFacadeTCP serves the facade's local-stack backends over the TCP
// transport: a session dialled onto them completes an iteration.
func TestFacadeTCP(t *testing.T) {
	cfg, err := ipls.NewConfig(ipls.TaskSpec{
		TaskID:                  "facade-tcp",
		ModelDim:                8,
		Partitions:              2,
		Trainers:                []string{"t0", "t1"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1"},
		TTrain:                  2 * time.Second,
		TSync:                   2 * time.Second,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, net, dir, err := ipls.NewLocalStack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	if err := srv.RegisterStorage(net); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterDirectory(dir); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sess, err := core.NewSession(cfg, client, client)
	if err != nil {
		t.Fatal(err)
	}
	deltas := map[string][]float64{"t0": make([]float64, 8), "t1": make([]float64, 8)}
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("facade TCP run incomplete: %v", res.Incomplete)
	}
}

// TestFacadeResilience runs a task on the public local stack and scenario
// runner with a storage replica crashed mid-task: the session reads the
// crashed node's blocks from their other replicas, so every round applies.
func TestFacadeResilience(t *testing.T) {
	m := ipls.NewLogistic(4, 3)
	cfg, err := ipls.NewConfig(ipls.TaskSpec{
		TaskID:                  "facade-recovery",
		ModelDim:                m.Dim(),
		Partitions:              2,
		Trainers:                []string{"t0", "t1"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1", "s2"},
		ProvidersPerAggregator:  1,
		TTrain:                  2 * time.Second,
		TSync:                   2 * time.Second,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, net, _, err := ipls.NewLocalStack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := ipls.Blobs(60, 4, 3, 1.0, 5).SplitIID(len(cfg.Trainers), 6)
	if err != nil {
		t.Fatal(err)
	}
	locals := map[string]*ipls.Dataset{"t0": splits[0], "t1": splits[1]}
	task, err := ipls.NewTask(sess, m, locals, ipls.SGDConfig{LearningRate: 0.3, Epochs: 1, BatchSize: 16}, m.Params())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ipls.ParseScenario("crash:s1@iter1")
	if err != nil {
		t.Fatal(err)
	}
	runner := ipls.NewScenarioRunner(task, net, plan)
	for round := 0; round < 3; round++ {
		metrics, _, applied, err := runner.RunRound(context.Background())
		if err != nil || !metrics.Applied {
			t.Fatalf("round %d with s1 down (%v): applied=%v err=%v", round, applied, metrics.Applied, err)
		}
	}
}

// TestFacadeDurableStorage builds a disk-backed storage network through
// the options struct and checks that a network reopened on the same
// directory serves the blocks written before the close.
func TestFacadeDurableStorage(t *testing.T) {
	opts := ipls.StorageNetworkOptions{
		Replicas: 2,
		Store:    ipls.StoreConfig{Backend: ipls.BackendFS, Dir: t.TempDir(), CacheBlocks: 4},
	}
	open := func() *ipls.StorageNetwork {
		net, err := ipls.NewStorageNetworkOpts(opts)
		if err != nil {
			t.Fatal(err)
		}
		net.AddNode("s0")
		net.AddNode("s1")
		return net
	}
	net := open()
	c, err := net.Put(context.Background(), "s0", []byte("replicated"))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	net = open()
	defer net.Close()
	for _, node := range []string{"s0", "s1"} {
		if got, err := net.Get(context.Background(), node, c); err != nil || string(got) != "replicated" {
			t.Fatalf("reopened %s Get = %q, %v", node, got, err)
		}
	}
}
