package core

import (
	"context"
	"testing"
	"time"

	"ipls/internal/obs"
)

func TestIterationWithAbsentTrainer(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.TTrain = 300 * time.Millisecond
		ts.TSync = 3 * time.Second
	})
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 1)
	absent := "t3"
	delete(deltas, absent)
	wantAvg := make([]float64, 24)
	for _, d := range deltas {
		for i := range d {
			wantAvg[i] += d[i] / float64(len(deltas))
		}
	}
	res, err := sess.runIteration(context.Background(), 0, deltas, RoundOptions{Absent: map[string]bool{absent: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete partitions: %v", res.Incomplete)
	}
	if d := maxAbsDiff(res.AvgDelta, wantAvg); d > 1e-3 {
		t.Fatalf("average over present trainers off by %v", d)
	}
	// Without the absentee named the same call is rejected up front.
	if _, err := sess.RunIteration(context.Background(), 1, deltas, nil); err == nil {
		t.Fatal("missing delta must fail unless its trainer is absent")
	}
}

func TestStandbyTakeoverCompletesPartition(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.Partitions = 2
		ts.TTrain = 300 * time.Millisecond
		ts.TSync = 4 * time.Second
	})
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 2)
	res, err := sess.runIteration(context.Background(), 0, deltas, RoundOptions{
		Behaviors: map[string]Behavior{"agg-p0-0": BehaviorDropout},
		Standbys:  map[int]string{0: "agg-p1-0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete partitions despite standby: %v", res.Incomplete)
	}
	if d := maxAbsDiff(res.AvgDelta, wantAvg); d > 1e-3 {
		t.Fatalf("average off by %v after takeover", d)
	}
	rep := res.Takeovers[0]
	if rep == nil {
		t.Fatal("no takeover report for partition 0")
	}
	if rep.ExecutedBy != "agg-p1-0" || rep.ID != "agg-p0-0" || !rep.PublishedGlobal {
		t.Fatalf("unexpected takeover report %+v", rep)
	}
	if got := reg.Counter("standby_takeover_total").Value(); got != 1 {
		t.Fatalf("standby_takeover_total = %d, want 1", got)
	}
}

func TestStandbyStaysQuietWhenPartitionHealthy(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.Partitions = 2
		ts.TTrain = 300 * time.Millisecond
		ts.TSync = 4 * time.Second
	})
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 3)
	res, err := sess.runIteration(context.Background(), 0, deltas,
		RoundOptions{Standbys: map[int]string{0: "agg-p1-0", 1: "agg-p0-0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Takeovers) != 0 {
		t.Fatalf("healthy partitions produced takeovers: %+v", res.Takeovers)
	}
	if got := reg.Counter("standby_takeover_total").Value(); got != 0 {
		t.Fatalf("standby_takeover_total = %d, want 0", got)
	}
	if d := maxAbsDiff(res.AvgDelta, wantAvg); d > 1e-3 {
		t.Fatalf("average off by %v", d)
	}
}
