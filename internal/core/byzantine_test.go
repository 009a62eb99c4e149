package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ipls/internal/obs"
	"ipls/internal/scenario"
)

// TestCorruptUploadEveryDownloadPath runs the Byzantine scenario of
// TestCorruptUploadQuarantinedEndToEnd on every way an aggregator can
// download gradients: one by one (no providers), merged on one or two
// providers, and one by one for norm screening. On each, the tampered
// uploads of round 1 are caught and expunged, every round is applied,
// and t1 is quarantined from round 2.
func TestCorruptUploadEveryDownloadPath(t *testing.T) {
	for _, tc := range []struct {
		name       string
		providers  int
		screenNorm float64
	}{
		{"providers-0", 0, 0},
		{"providers-1", 1, 0},
		{"providers-2", 2, 0},
		// NewConfig refuses screening in verifiable mode (a screened-out
		// gradient would invalidate the accumulator), so the row sets the
		// field directly; the bound is far above any honest gradient, and
		// the row exercises the one-record-per-group download.
		{"providers-2-screened", 2, 1e9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			task, net, dir, _ := newScenarioTask(t, "t%d", true, tc.providers)
			task.session.cfg.ScreenNorm = tc.screenNorm
			reg := obs.NewRegistry()
			task.session.SetMetrics(reg)
			plan, err := scenario.Parse("corrupt:t1@iter1..2")
			if err != nil {
				t.Fatal(err)
			}
			runner := NewScenarioRunner(task, net, plan)
			for round := 0; round < 4; round++ {
				metrics, res, _, err := runner.RunRound(context.Background())
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if !metrics.Applied {
					t.Fatalf("round %d not applied (incomplete %v)", round, res.Incomplete)
				}
			}
			if got := dir.Stats().Expunged; got != 2 {
				t.Errorf("expunged = %d, want 2", got)
			}
			if q := dir.Quarantined(); len(q) != 1 || q["t1"] != 2 {
				t.Errorf("quarantined = %v, want map[t1:2]", q)
			}
			if got := reg.Counter("byzantine_quarantines_total").Value(); got != 1 {
				t.Errorf("byzantine_quarantines_total = %d, want 1", got)
			}
			if got := reg.Counter("byzantine_rejects_total").Value(); got != 2 {
				t.Errorf("byzantine_rejects_total = %d, want 2", got)
			}
		})
	}
}

// TestPerActorSessionsMatchSharedSession drives every trainer and
// aggregator through a Session of its own, all over one storage network
// and directory, and compares the run with one shared Session. A session
// keeps no state about other actors, so both quarantine t1 from iteration
// 2 after exactly 2 expunges and collect the same averaged deltas.
func TestPerActorSessionsMatchSharedSession(t *testing.T) {
	const iters = 4
	corrupt := func(iter int) map[string]bool {
		return map[string]bool{"t1": iter == 1 || iter == 2}
	}
	spec := func(ts *TaskSpec) {
		ts.Partitions = 2
		ts.Trainers = []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
		ts.StorageNodes = []string{"s0", "s1", "s2", "s3"}
		ts.ProvidersPerAggregator = 1
		ts.Verifiable = true
	}
	deltas := make([]map[string][]float64, iters)
	for iter := range deltas {
		deltas[iter], _ = randomDeltas([]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}, 24, int64(40+iter))
	}

	shared, _, sharedDir := testStack(t, spec)
	sharedAvg := make([][]float64, iters)
	for iter := 0; iter < iters; iter++ {
		res, err := shared.runIteration(context.Background(), iter, deltas[iter], RoundOptions{Corrupt: corrupt(iter)})
		if err != nil {
			t.Fatalf("shared iteration %d: %v", iter, err)
		}
		if len(res.Incomplete) > 0 {
			t.Fatalf("shared iteration %d incomplete: %v", iter, res.Incomplete)
		}
		sharedAvg[iter] = res.AvgDelta
	}

	boot, net, dir := testStack(t, spec)
	cfg := boot.cfg
	actor := func() *Session {
		sess, err := NewSession(cfg, net, dir)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	trainers := make(map[string]*Session)
	for _, tr := range cfg.Trainers {
		trainers[tr] = actor()
	}
	aggregators := make(map[string]*Session)
	for _, ref := range cfg.AllAggregators() {
		aggregators[ref.ID] = actor()
	}
	ctx := context.Background()
	for iter := 0; iter < iters; iter++ {
		dir.SetSchedule(iter, time.Now().Add(cfg.TTrain))
		var wg sync.WaitGroup
		errs := make(chan error, len(trainers)+len(aggregators))
		for tr, sess := range trainers {
			wg.Add(1)
			go func(tr string, sess *Session) {
				defer wg.Done()
				// A quarantined trainer's publish is refused; the upload
				// then returns nil and the trainer sits the round out.
				if err := sess.trainerUpload(ctx, obs.SpanContext{}, tr, iter, deltas[iter][tr], corrupt(iter)[tr]); err != nil {
					errs <- err
				}
			}(tr, sess)
		}
		for _, ref := range cfg.AllAggregators() {
			wg.Add(1)
			go func(ref AggregatorRef) {
				defer wg.Done()
				if _, err := aggregators[ref.ID].AggregatorRun(ctx, ref.ID, ref.Partition, iter, BehaviorHonest); err != nil {
					errs <- fmt.Errorf("%s: %w", ref.ID, err)
				}
			}(ref)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("per-actor iteration %d: %v", iter, err)
		}
		avg, err := trainers["t0"].TrainerCollect(ctx, iter)
		if err != nil {
			t.Fatalf("per-actor iteration %d collect: %v", iter, err)
		}
		if diff := maxAbsDiff(avg, sharedAvg[iter]); diff != 0 {
			t.Fatalf("iteration %d: per-actor average differs from shared by %v", iter, diff)
		}
	}

	for name, d := range map[string]interface {
		Quarantined() map[string]int
	}{"shared": sharedDir, "per-actor": dir} {
		if q := d.Quarantined(); len(q) != 1 || q["t1"] != 2 {
			t.Errorf("%s: quarantined = %v, want map[t1:2]", name, q)
		}
	}
	if a, b := sharedDir.Stats().Expunged, dir.Stats().Expunged; a != 2 || b != 2 {
		t.Errorf("expunged: shared %d, per-actor %d, want 2 each", a, b)
	}
}
