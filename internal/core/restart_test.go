package core

import (
	"context"
	"testing"
	"time"

	"ipls/internal/directory"
)

// TestBootstrapperRestartMidIteration: the directory crashes after the
// trainers uploaded; the bootstrapper restores it from a snapshot and the
// aggregators complete the iteration — verifiable mode included, since the
// commitment accumulators survive the snapshot.
func TestBootstrapperRestartMidIteration(t *testing.T) {
	sess, net, dir := testStack(t, func(ts *TaskSpec) { ts.Verifiable = true })
	cfg := sess.cfg
	deltas, wantAvg := randomDeltas(cfg.Trainers, 24, 90)

	// Phase 1: trainers upload against the original directory.
	for _, tr := range cfg.Trainers {
		if err := sess.TrainerUpload(context.Background(), tr, 0, deltas[tr]); err != nil {
			t.Fatal(err)
		}
	}

	// The bootstrapper "crashes": snapshot, discard, restore.
	snap, err := dir.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := directory.Restore(snap, params, net)
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := NewSession(cfg, net, restored)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: aggregators and trainers finish against the restored
	// directory.
	for _, ref := range cfg.AllAggregators() {
		rep, err := sess2.AggregatorRun(context.Background(), ref.ID, ref.Partition, 0, BehaviorHonest)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.PublishedGlobal {
			t.Fatalf("aggregator %s failed after restore", ref.ID)
		}
	}
	avg, err := sess2.TrainerCollect(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(avg, wantAvg); diff > 1e-6 {
		t.Fatalf("average after restart off by %v", diff)
	}
	if restored.Stats().Verifications == 0 {
		t.Fatal("restored directory performed no verifications")
	}
}

// TestRestartPreservesDetection: a restored directory still rejects
// malicious updates (the accumulators carried over intact).
func TestRestartPreservesDetection(t *testing.T) {
	sess, net, dir := testStack(t, func(ts *TaskSpec) {
		ts.Verifiable = true
		ts.TSync = 400 * time.Millisecond
	})
	cfg := sess.cfg
	deltas, _ := randomDeltas(cfg.Trainers, 24, 91)
	for _, tr := range cfg.Trainers {
		if err := sess.TrainerUpload(context.Background(), tr, 0, deltas[tr]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := dir.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := directory.Restore(snap, params, net)
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := NewSession(cfg, net, restored)
	if err != nil {
		t.Fatal(err)
	}
	evil := AggregatorID(0, 0)
	rep, err := sess2.AggregatorRun(context.Background(), evil, 0, 0, BehaviorDropGradient)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GlobalRejected {
		t.Fatal("restored directory accepted a malicious update")
	}
}

// TestRestartPreservesSchedulesAndFinals: schedules and accepted updates
// survive the round trip.
func TestRestartPreservesSchedulesAndFinals(t *testing.T) {
	sess, net, dir := testStack(t, nil)
	cfg := sess.cfg
	deltas, _ := randomDeltas(cfg.Trainers, 24, 92)
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	dir.SetSchedule(7, base.Add(-time.Hour)) // already-expired future iteration
	snap, err := dir.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := directory.Restore(snap, nil, net)
	if err != nil {
		t.Fatal(err)
	}
	// Finals survive.
	for p := 0; p < cfg.Spec.Partitions; p++ {
		orig, err := dir.Update(context.Background(), 0, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Update(context.Background(), 0, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.CID != orig.CID {
			t.Fatalf("partition %d final update CID changed", p)
		}
	}
	// Stats carried over (compare before issuing new traffic).
	if restored.Stats().Publishes != dir.Stats().Publishes {
		t.Fatal("stats not restored")
	}
	// The expired schedule still rejects gradients.
	sess2, err := NewSession(cfg, net, restored)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.TrainerUpload(context.Background(), "t0", 7, make([]float64, 24)); err == nil {
		t.Fatal("expired schedule lost in restore")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := directory.Restore([]byte("not json"), nil, nil); err == nil {
		t.Fatal("expected unmarshal error")
	}
}
