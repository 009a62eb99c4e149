package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"ipls/internal/cid"
	"ipls/internal/dag"
	"ipls/internal/ml"
	"ipls/internal/storage"
)

func durableSpec() TaskSpec {
	return TaskSpec{
		TaskID:                  "durable-test",
		ModelDim:                24,
		Partitions:              2,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1", "s2"},
		TTrain:                  2 * time.Second,
		TSync:                   2 * time.Second,
		PollInterval:            time.Millisecond,
	}
}

func openDurable(t *testing.T, dir string, opts ...func(*TaskSpec)) *DurableStack {
	t.Helper()
	spec := durableSpec()
	for _, o := range opts {
		o(&spec)
	}
	cfg, err := NewConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := OpenDurableStack(cfg, DurableOptions{StoreDir: dir, CacheBlocks: 16, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	return stack
}

// TestDurableStackCrashRestartMidRound kills the node mid-round — after
// the trainers uploaded but before aggregation — reopens the same store
// directory, and asserts every previously announced CID is served with an
// intact hash, without any re-replication.
func TestDurableStackCrashRestartMidRound(t *testing.T) {
	dir := t.TempDir()
	stack := openDurable(t, dir)
	cfg := stack.Session.cfg
	deltas, wantAvg := randomDeltas(cfg.Trainers, 24, 7)

	for _, tr := range cfg.Trainers {
		if err := stack.Session.TrainerUpload(context.Background(), tr, 0, deltas[tr]); err != nil {
			t.Fatal(err)
		}
	}
	// Collect what the directory announced pre-crash.
	var announced []cid.CID
	for p := 0; p < cfg.Spec.Partitions; p++ {
		for _, agg := range cfg.Aggregators[p] {
			for _, rec := range stack.Dir.GradientsFor(context.Background(), 0, p, agg) {
				announced = append(announced, rec.CID)
			}
		}
	}
	// One gradient record per trainer per partition.
	if want := len(cfg.Trainers) * cfg.Spec.Partitions; len(announced) != want {
		t.Fatalf("expected %d announced gradients, got %d", want, len(announced))
	}
	// "Crash": close mid-round (Close persists the snapshot; the blocks
	// were already durable at Put time).
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directory.
	stack2 := openDurable(t, dir)
	defer stack2.Close()
	if !stack2.Restored() {
		t.Fatal("restart did not restore the persisted directory snapshot")
	}
	// Every pre-crash CID is served with an intact hash. Reopening never
	// runs a repair; storage's TestNetworkRestartServesBlocksWithoutReReplication
	// pins that the reopened nodes re-announce their blocks.
	for _, c := range announced {
		data, err := stack2.Network.Fetch(context.Background(), c)
		if err != nil {
			t.Fatalf("post-restart fetch %s: %v", c.Short(), err)
		}
		if !cid.Verify(data, c) {
			t.Fatalf("post-restart block %s fails verification", c.Short())
		}
	}

	// The restored stack finishes the round the crash interrupted.
	for _, ref := range cfg.AllAggregators() {
		rep, err := stack2.Session.AggregatorRun(context.Background(), ref.ID, ref.Partition, 0, BehaviorHonest)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.PublishedGlobal {
			t.Fatalf("aggregator %s failed after restart", ref.ID)
		}
	}
	avg, err := stack2.Session.TrainerCollect(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(avg, wantAvg); diff > 1e-6 {
		t.Fatalf("post-restart average off by %g", diff)
	}
}

// TestDurableStackCorruptBlockSurfacesIntegrity rots one stored block on
// disk across a restart: the disk backend reports ErrIntegrity, and the
// network's health check flags the backend failure distinctly.
func TestDurableStackCorruptBlockSurfacesIntegrity(t *testing.T) {
	dir := t.TempDir()
	stack := openDurable(t, dir)
	c, err := stack.Network.Put(context.Background(), "s0", []byte("soon to rot"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}

	stack2 := openDurable(t, dir)
	defer stack2.Close()
	if err := stack2.Network.Corrupt("s0", c); err != nil {
		t.Fatal(err)
	}
	if _, err := stack2.Network.Get(context.Background(), "s0", c); !errors.Is(err, storage.ErrIntegrity) {
		t.Fatalf("want ErrIntegrity from rotted block, got %v", err)
	}
	if err := stack2.Network.Health(); !errors.Is(err, storage.ErrBackend) {
		t.Fatalf("Health should surface the backend failure, got %v", err)
	}
	// The replica still serves the data (content routing skips the rotted
	// copy).
	if _, err := stack2.Network.Fetch(context.Background(), c); err != nil {
		t.Fatalf("replica failover after rot: %v", err)
	}
}

// TestGCSupersededKeepsWorkingSet runs two rounds, checkpoints, then
// collects everything but the current round and the checkpoint DAG; old
// gradients vanish, the kept round and checkpoint survive.
func TestGCSupersededKeepsWorkingSet(t *testing.T) {
	dir := t.TempDir()
	stack := openDurable(t, dir)
	defer stack.Close()
	sess, net := stack.Session, stack.Network
	cfg := sess.cfg

	var iterCIDs [2][]cid.CID
	for iter := 0; iter < 2; iter++ {
		deltas, _ := randomDeltas(cfg.Trainers, 24, int64(20+iter))
		if _, err := sess.RunIteration(context.Background(), iter, deltas, nil); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < cfg.Spec.Partitions; p++ {
			for _, agg := range cfg.Aggregators[p] {
				for _, rec := range stack.Dir.GradientsFor(context.Background(), iter, p, agg) {
					iterCIDs[iter] = append(iterCIDs[iter], rec.CID)
				}
			}
		}
	}
	ckpt, err := SaveCheckpoint(context.Background(), net, "s0", []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}

	report, err := sess.GCSuperseded(context.Background(), GCOptions{
		KeepIters: []int{1},
		KeepRoots: []dag.Ref{ckpt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Collected == 0 {
		t.Fatal("GC collected nothing; iteration 0 should be superseded")
	}
	// Iteration 0's gradients are gone.
	for _, c := range iterCIDs[0] {
		if _, err := net.Fetch(context.Background(), c); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("superseded block %s survived GC: %v", c.Short(), err)
		}
	}
	// Iteration 1's gradients and the checkpoint survive.
	for _, c := range iterCIDs[1] {
		if _, err := net.Fetch(context.Background(), c); err != nil {
			t.Fatalf("kept block %s lost: %v", c.Short(), err)
		}
	}
	if _, err := LoadCheckpoint(context.Background(), net, "s0", ckpt); err != nil {
		t.Fatalf("checkpoint lost after GC: %v", err)
	}
}

// TestTaskResumeOnDurableStack restarts an FL task on the durable stack:
// the reopened task replays the completed rounds' published updates from
// the directory, continues the round numbering, and keeps training.
func TestTaskResumeOnDurableStack(t *testing.T) {
	testTaskResume(t, func(*TaskSpec) {})
}

// TestTaskResumeOnDurableStackVerifiable resumes a verifiable task. The
// restart re-applies the task's assignments to the restored directory, so
// every trainer must still be expected once: a doubled count would hold
// every global publish at ErrTooEarly until t_train passes, which
// testTaskResume's time limit on the post-resume round catches.
func TestTaskResumeOnDurableStackVerifiable(t *testing.T) {
	testTaskResume(t, func(ts *TaskSpec) { ts.Verifiable = true })
}

// testTaskResume runs two rounds, restarts the durable stack, resumes and
// runs one more round, which must finish well inside t_train.
func testTaskResume(t *testing.T, spec func(*TaskSpec)) {
	t.Helper()
	dir := t.TempDir()
	newTask := func(stack *DurableStack) *Task {
		t.Helper()
		m := ml.NewLogistic(5, 4) // dim = 4*(5+1) = 24, matching durableSpec
		data := ml.Blobs(240, 5, 4, 1.0, 11)
		splits, err := data.SplitIID(4, 12)
		if err != nil {
			t.Fatal(err)
		}
		cfg := stack.Session.cfg
		locals := make(map[string]*ml.Dataset, len(cfg.Trainers))
		for i, name := range cfg.Trainers {
			locals[name] = splits[i]
		}
		task, err := NewTask(stack.Session, m, locals,
			ml.SGDConfig{LearningRate: 0.3, Epochs: 1, BatchSize: 16}, m.Params())
		if err != nil {
			t.Fatal(err)
		}
		return task
	}

	stack := openDurable(t, dir, spec)
	task := newTask(stack)
	for r := 0; r < 2; r++ {
		if _, _, err := task.RunRound(context.Background(), RoundOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	preCrash := task.Global()
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}

	stack2 := openDurable(t, dir, spec)
	t.Cleanup(func() { stack2.Close() })
	task2 := newTask(stack2)
	replayed, err := task2.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 2 || task2.Round() != 2 {
		t.Fatalf("Resume replayed %d rounds (round %d), want 2", replayed, task2.Round())
	}
	if diff := maxAbsDiff(task2.Global(), preCrash); diff > 1e-3 {
		t.Fatalf("replayed model off by %g from the pre-crash global", diff)
	}
	// Training continues where it left off, without waiting out t_train.
	start := time.Now()
	metrics, _, err := task2.RunRound(context.Background(), RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Round != 2 || !metrics.Applied {
		t.Fatalf("post-resume round = %+v, want applied round 2", metrics)
	}
	if took, limit := time.Since(start), stack2.Session.cfg.TTrain/4; took >= limit {
		t.Fatalf("post-resume round took %v, want under %v (t_train/4)", took, limit)
	}
}
