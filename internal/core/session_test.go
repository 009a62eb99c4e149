package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"ipls/internal/directory"
	"ipls/internal/storage"
)

// testStack builds an in-memory deployment for a small task.
func testStack(t *testing.T, mutate func(*TaskSpec)) (*Session, *storage.Network, *directory.Service) {
	t.Helper()
	ts := TaskSpec{
		TaskID:                  "sess-test",
		ModelDim:                24,
		Partitions:              3,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1", "s2"},
		ProvidersPerAggregator:  0,
		Verifiable:              false,
		TTrain:                  2 * time.Second,
		TSync:                   2 * time.Second,
		PollInterval:            time.Millisecond,
	}
	if mutate != nil {
		mutate(&ts)
	}
	cfg, err := NewConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	sess, net, dir, err := NewLocalStack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sess, net, dir
}

// randomDeltas builds a deterministic random delta per trainer plus the
// expected average.
func randomDeltas(trainers []string, dim int, seed int64) (map[string][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	deltas := make(map[string][]float64, len(trainers))
	avg := make([]float64, dim)
	for _, tr := range trainers {
		d := make([]float64, dim)
		for i := range d {
			d[i] = rng.NormFloat64()
			avg[i] += d[i] / float64(len(trainers))
		}
		deltas[tr] = d
	}
	return deltas, avg
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestHonestIterationAverages(t *testing.T) {
	sess, _, _ := testStack(t, nil)
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 1)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete partitions: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("averaged delta off by %v", diff)
	}
	for id, rep := range res.Reports {
		if !rep.PublishedGlobal {
			t.Fatalf("aggregator %s did not publish", id)
		}
	}
}

func TestHonestIterationVerifiable(t *testing.T) {
	sess, _, dir := testStack(t, func(ts *TaskSpec) { ts.Verifiable = true })
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 2)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() {
		t.Fatal("honest run flagged as malicious")
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("averaged delta off by %v", diff)
	}
	if dir.Stats().Verifications == 0 {
		t.Fatal("verifiable mode performed no verifications")
	}
}

func TestMergeAndDownloadEquivalence(t *testing.T) {
	// The averaged delta must be identical with and without
	// merge-and-download.
	var plainAvg, mergedAvg []float64
	{
		sess, _, _ := testStack(t, nil)
		deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 3)
		res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
		if err != nil {
			t.Fatal(err)
		}
		plainAvg = res.AvgDelta
	}
	{
		sess, _, _ := testStack(t, func(ts *TaskSpec) { ts.ProvidersPerAggregator = 2 })
		deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 3)
		res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
		if err != nil {
			t.Fatal(err)
		}
		mergedAvg = res.AvgDelta
		merged := false
		for _, rep := range res.Reports {
			if rep.MergeDownloads > 0 {
				merged = true
			}
		}
		if !merged {
			t.Fatal("no merge-and-download happened despite providers")
		}
	}
	if diff := maxAbsDiff(plainAvg, mergedAvg); diff != 0 {
		t.Fatalf("merge-and-download changed the aggregate by %v", diff)
	}
}

func TestMaliciousDropDetectedAndBlocked(t *testing.T) {
	for _, behavior := range []Behavior{BehaviorDropGradient, BehaviorAlterGradient, BehaviorForgeUpdate} {
		t.Run(behavior.String(), func(t *testing.T) {
			sess, _, _ := testStack(t, func(ts *TaskSpec) {
				ts.Verifiable = true
				ts.TSync = 500 * time.Millisecond
			})
			deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 4)
			evil := AggregatorID(1, 0)
			res, err := sess.RunIteration(context.Background(), 0, deltas,
				map[string]Behavior{evil: behavior})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Detected() {
				t.Fatal("malicious aggregation not detected")
			}
			if !res.Reports[evil].GlobalRejected {
				t.Fatal("directory did not reject the malicious update")
			}
			// The poisoned partition has no accepted update.
			found := false
			for _, p := range res.Incomplete {
				if p == 1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("partition 1 should be incomplete, got %v", res.Incomplete)
			}
		})
	}
}

func TestMaliciousUndetectedWithoutVerifiability(t *testing.T) {
	// The contrast experiment: in plain mode the poisoned update is
	// accepted and the aggregate is wrong.
	sess, _, _ := testStack(t, nil)
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 5)
	evil := AggregatorID(0, 0)
	res, err := sess.RunIteration(context.Background(), 0, deltas,
		map[string]Behavior{evil: BehaviorAlterGradient})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() {
		t.Fatal("plain mode cannot detect anything")
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("poisoned update should be accepted in plain mode: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff < 1e-3 {
		t.Fatal("poisoning had no effect — test is vacuous")
	}
}

func TestMultiAggregatorSync(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.Verifiable = true
	})
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 6)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("multi-aggregator average off by %v", diff)
	}
	// Exactly one aggregator per partition wins the global publish.
	winners := make(map[int]int)
	for _, rep := range res.Reports {
		if rep.PublishedGlobal {
			winners[rep.Partition]++
		}
	}
	for p := 0; p < 3; p++ {
		if winners[p] != 1 {
			t.Fatalf("partition %d has %d winners", p, winners[p])
		}
	}
}

func TestAggregatorDropoutTakeover(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.TSync = 400 * time.Millisecond
	})
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 7)
	dead := AggregatorID(2, 1)
	res, err := sess.RunIteration(context.Background(), 0, deltas,
		map[string]Behavior{dead: BehaviorDropout})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("takeover failed, incomplete: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("average after takeover off by %v", diff)
	}
	survivor := res.Reports[AggregatorID(2, 0)]
	if len(survivor.TookOverFor) != 1 || survivor.TookOverFor[0] != dead {
		t.Fatalf("survivor report: %+v", survivor)
	}
}

func TestMaliciousPeerDetectedBySurvivor(t *testing.T) {
	// With two aggregators on a partition, a malicious one is detected by
	// its peer (invalid partial), taken over, and the correct update
	// still lands.
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.Verifiable = true
		ts.TSync = time.Second
	})
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 8)
	evil := AggregatorID(0, 1)
	res, err := sess.RunIteration(context.Background(), 0, deltas,
		map[string]Behavior{evil: BehaviorAlterGradient})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("honest peer should have recovered the partition: %v", res.Incomplete)
	}
	if !res.Detected() {
		t.Fatal("malicious peer not detected")
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("average with malicious peer off by %v", diff)
	}
	honest := res.Reports[AggregatorID(0, 0)]
	if len(honest.InvalidPartials) != 1 || honest.InvalidPartials[0] != evil {
		t.Fatalf("honest report: %+v", honest)
	}
	if len(honest.TookOverFor) != 1 {
		t.Fatalf("honest peer should take over for the cheater: %+v", honest)
	}
}

func TestStorageNodeFailureWithReplication(t *testing.T) {
	ts := TaskSpec{
		TaskID:                  "fail-test",
		ModelDim:                12,
		Partitions:              2,
		Trainers:                []string{"t0", "t1"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1", "s2"},
		TTrain:                  2 * time.Second,
		TSync:                   2 * time.Second,
		PollInterval:            time.Millisecond,
	}
	cfg, err := NewConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	sess, net, _, err := NewLocalStack(cfg, 2) // replication factor 2
	if err != nil {
		t.Fatal(err)
	}
	deltas, wantAvg := randomDeltas(cfg.Trainers, 12, 9)
	for _, tr := range cfg.Trainers {
		if err := sess.TrainerUpload(context.Background(), tr, 0, deltas[tr]); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one storage node after uploads; replication lets aggregation
	// proceed through content routing.
	if err := net.Fail("s0"); err != nil {
		t.Fatal(err)
	}
	for _, ref := range cfg.AllAggregators() {
		if _, err := sess.AggregatorRun(context.Background(), ref.ID, ref.Partition, 0, BehaviorHonest); err != nil {
			t.Fatal(err)
		}
	}
	avg, err := sess.TrainerCollect(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(avg, wantAvg); diff > 1e-6 {
		t.Fatalf("average after node failure off by %v", diff)
	}
}

func TestRunIterationValidation(t *testing.T) {
	sess, _, _ := testStack(t, nil)
	if _, err := sess.RunIteration(context.Background(), 0, nil, nil); err == nil {
		t.Fatal("expected error for missing deltas")
	}
	bad := map[string][]float64{"t0": nil, "t1": nil, "t2": nil, "ghost": nil}
	if _, err := sess.RunIteration(context.Background(), 0, bad, nil); err == nil {
		t.Fatal("expected error for wrong trainer set")
	}
}

func TestTrainerCollectTimesOut(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) { ts.TSync = 50 * time.Millisecond })
	if _, err := sess.TrainerCollect(context.Background(), 99); err == nil {
		t.Fatal("expected timeout waiting for nonexistent update")
	}
}

func TestTrainerCollectHonorsContext(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) { ts.TSync = 10 * time.Second })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := sess.TrainerCollect(ctx, 99); err == nil {
		t.Fatal("expected context error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("context cancellation not honored promptly")
	}
}

func TestIterationsAreIndependent(t *testing.T) {
	sess, _, _ := testStack(t, nil)
	for iter := 0; iter < 3; iter++ {
		deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, int64(100+iter))
		res, err := sess.RunIteration(context.Background(), iter, deltas, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
			t.Fatalf("iter %d average off by %v", iter, diff)
		}
	}
}

func TestQuantizationErrorBound(t *testing.T) {
	// The protocol's only numerical deviation from exact float averaging
	// is fixed-point quantization; the error must stay below 2^-shift.
	sess, _, _ := testStack(t, nil)
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 11)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	bound := math.Ldexp(1, -int(sess.cfg.QuantShift)) // generous: n·ulp/2/n
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > bound {
		t.Fatalf("quantization error %v exceeds bound %v", diff, bound)
	}
}

func TestNewSessionRejectsBadShift(t *testing.T) {
	cfg, err := NewConfig(baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg.QuantShift = 99
	if _, _, _, err := NewLocalStack(cfg, 1); err == nil {
		t.Fatal("expected quantizer error")
	}
}

func ExampleAggregatorID() {
	fmt.Println(AggregatorID(0, 1))
	// Output: agg-p0-1
}

// tooEarly is a directory whose gradient sets never close: it refuses
// every global update with ErrTooEarly.
type tooEarly struct{ *directory.Service }

func (d tooEarly) Publish(ctx context.Context, rec directory.Record) error {
	if rec.Addr.Type == directory.TypeUpdate {
		return directory.ErrTooEarly
	}
	return d.Service.Publish(ctx, rec)
}

// TestGlobalPublishGivesUpAtTSync checks the global-update wait: an
// aggregator keeps offering its update while the directory says it is too
// early, and at t_sync returns an error that still says why.
func TestGlobalPublishGivesUpAtTSync(t *testing.T) {
	base, netw, dir := testStack(t, func(ts *TaskSpec) { ts.TSync = 20 * time.Millisecond })
	sess, err := NewSession(base.cfg, netw, tooEarly{dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sess.cfg
	ctx := context.Background()
	deltas, _ := randomDeltas(cfg.Trainers, 24, 4)
	for _, tr := range cfg.Trainers {
		if err := sess.TrainerUpload(ctx, tr, 0, deltas[tr]); err != nil {
			t.Fatal(err)
		}
	}
	ref := cfg.AllAggregators()[0]
	start := time.Now()
	rep, err := sess.AggregatorRun(ctx, ref.ID, ref.Partition, 0, BehaviorHonest)
	if !errors.Is(err, directory.ErrTooEarly) {
		t.Fatalf("got %v, want an error wrapping ErrTooEarly", err)
	}
	if waited := time.Since(start); waited < cfg.TSync {
		t.Fatalf("gave up after %v, before t_sync %v", waited, cfg.TSync)
	}
	if rep.PublishedGlobal {
		t.Fatal("report claims a published global update")
	}
}
