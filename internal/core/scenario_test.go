package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ipls/internal/directory"
	"ipls/internal/ml"
	"ipls/internal/obs"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

// newScenarioTask builds an ML task over six replicated ipfs-NN storage
// nodes, sized so churn leaves live capacity. trainerFmt names the eight
// trainers ("t%d", or iplssim's "trainer-%02d"); the Byzantine path
// needs verifiable mode, and providers picks the download path
// (0: one record per group, ≥ 1: merged per provider).
func newScenarioTask(t *testing.T, trainerFmt string, verifiable bool, providers int) (*Task, *storage.Network, *directory.Service, *ml.Dataset) {
	t.Helper()
	const trainers = 8
	m := ml.NewLogistic(4, 4)
	data := ml.Blobs(480, 4, 4, 0.8, 77)
	names := make([]string, trainers)
	for i := range names {
		names[i] = fmt.Sprintf(trainerFmt, i)
	}
	stores := make([]string, 6)
	for i := range stores {
		stores[i] = fmt.Sprintf("ipfs-%02d", i)
	}
	ts := TaskSpec{
		TaskID:                  "scenario-task",
		ModelDim:                m.Dim(),
		Partitions:              2,
		Trainers:                names,
		AggregatorsPerPartition: 1,
		StorageNodes:            stores,
		ProvidersPerAggregator:  providers,
		Verifiable:              verifiable,
		TTrain:                  400 * time.Millisecond,
		TSync:                   5 * time.Second,
		PollInterval:            time.Millisecond,
	}
	cfg, err := NewConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	sess, net, dir, err := NewLocalStack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	net.SetPlacement(storage.PlacementRendezvous)
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
	return task, net, dir, data
}

// TestScenarioRunnerPartitionOpensAndHeals drives a plan whose partition
// window isolates a storage node for two rounds: rounds inside the
// window still complete (replication covers the isolated node's blocks),
// and when the window closes the network heals and re-replicates.
func TestScenarioRunnerPartitionOpensAndHeals(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, "t%d", false, 0)
	reg := obs.NewRegistry()
	task.session.SetMetrics(reg)
	net.SetMetrics(reg)
	plan, err := scenario.Parse("partition:mainline|ipfs-01@iter1..2")
	if err != nil {
		t.Fatal(err)
	}
	runner := NewScenarioRunner(task, net, plan)
	runner.SetMetrics(reg)

	ctx := context.Background()
	for round := 0; round < 4; round++ {
		metrics, res, applied, err := runner.RunRound(ctx)
		if err != nil {
			t.Fatalf("round %d (%v): %v", round, applied, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied (incomplete %v)", round, res.Incomplete)
		}
		switch round {
		case 0:
			if len(net.Partitioned()) != 0 {
				t.Fatal("partition in force before its window")
			}
		case 1, 2:
			if got := net.Partitioned(); len(got) != 1 || got[0] != "ipfs-01" {
				t.Fatalf("round %d: partitioned = %v, want [ipfs-01]", round, got)
			}
			if err := net.Health(); err == nil {
				t.Fatalf("round %d: network healthy while partitioned", round)
			}
		case 3:
			if got := net.Partitioned(); len(got) != 0 {
				t.Fatalf("round 3: partition not healed: %v", got)
			}
			if err := net.Health(); err != nil {
				t.Fatalf("round 3: network unhealthy after heal: %v", err)
			}
		}
	}
	if got := reg.Counter("partition_heals_total").Value(); got != 1 {
		t.Fatalf("partition_heals_total = %d, want 1", got)
	}
	if got := reg.Gauge("partition_active_nodes").Value(); got != 0 {
		t.Fatalf("partition_active_nodes = %v, want 0", got)
	}
	if got := len(net.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks under-replicated after heal", got)
	}
}

// TestScenarioRunnerFinishHealsOpenWindow covers a plan whose partition
// window outlives the run: Finish must close it.
func TestScenarioRunnerFinishHealsOpenWindow(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, "t%d", false, 0)
	plan, err := scenario.Parse("partition:mainline|ipfs-02@iter1..9")
	if err != nil {
		t.Fatal(err)
	}
	runner := NewScenarioRunner(task, net, plan)
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		if _, _, applied, err := runner.RunRound(ctx); err != nil {
			t.Fatalf("round %d (%v): %v", round, applied, err)
		}
	}
	if len(net.Partitioned()) != 1 {
		t.Fatal("window not open at end of run")
	}
	if _, err := runner.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if got := net.Partitioned(); len(got) != 0 {
		t.Fatalf("Finish left partition %v", got)
	}
}

// TestQuorumRoundProceedsAndFoldsLateDelta is the examples/quorum story
// as a test: with quorum 0.8 over 8 trainers (need 7) and one late
// trainer, the round closes at 7-of-8 shortly after the quorum wait
// instead of blocking until t_train, and the straggler's delta folds
// into the next round age-discounted.
func TestQuorumRoundProceedsAndFoldsLateDelta(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, "t%d", false, 0)
	reg := obs.NewRegistry()
	task.session.SetMetrics(reg)
	col := obs.NewSpanCollector(0)
	task.session.SetSpans(col)
	plan, err := scenario.Parse("late:t2@iter0")
	if err != nil {
		t.Fatal(err)
	}
	runner := NewScenarioRunner(task, net, plan)
	runner.SetQuorum(0.8, 50*time.Millisecond)

	ctx := context.Background()
	start := time.Now()
	metrics, res, _, err := runner.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !metrics.Applied || len(res.Incomplete) != 0 {
		t.Fatalf("quorum round did not complete: %+v incomplete %v", metrics, res.Incomplete)
	}
	if metrics.LateFolded != 0 {
		t.Fatalf("round 0 folded %d deltas, want 0 (stash is for the next round)", metrics.LateFolded)
	}
	// The round must have closed well before the 400ms t_train deadline
	// would have released the wait (two partitions would stack two waits).
	if elapsed > 350*time.Millisecond {
		t.Fatalf("quorum round took %v; the wait did not cut at quorum", elapsed)
	}
	if got := reg.Counter("quorum_proceed_total").Value(); got == 0 {
		t.Fatal("quorum_proceed_total = 0, want > 0")
	}
	events, on := spanEvents(col.Spans(), "quorum_proceed")
	if len(events) == 0 || on[0].Name != "gradient_wait" || events[0].Detail != "7 of 8" {
		t.Fatalf("quorum_proceed events %+v, want \"7 of 8\" on gradient_wait", events)
	}

	metrics, _, _, err = runner.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.LateFolded != 1 {
		t.Fatalf("round 1 folded %d late deltas, want 1", metrics.LateFolded)
	}
}

// TestScenarioLateFoldAndBootstrapSpans checks the two round-level
// actions that run outside any protocol role get spans of their own: a
// late trainer's delta folding into the next round, and a crashed
// trainer's checkpoint bootstrap on rejoin.
func TestScenarioLateFoldAndBootstrapSpans(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, "t%d", false, 0)
	col := obs.NewSpanCollector(0)
	task.session.SetSpans(col)
	plan, err := scenario.Parse("late:t2@iter0,crash:t5@iter0,rejoin:t5@iter1")
	if err != nil {
		t.Fatal(err)
	}
	runner := NewScenarioRunner(task, net, plan)
	for round := 0; round < 2; round++ {
		if _, _, applied, err := runner.RunRound(context.Background()); err != nil {
			t.Fatalf("round %d (%v): %v", round, applied, err)
		}
	}
	spans := col.Spans()
	folds := spansNamed(spans, "late_fold")
	if len(folds) != 1 || folds[0].Actor != "t2" || folds[0].Context.Iter != 1 || folds[0].Attrs["from_round"] != "0" {
		t.Fatalf("late_fold spans = %+v, want t2's round-0 delta folded in round 1", folds)
	}
	boots := spansNamed(spans, "bootstrap")
	if len(boots) != 1 || boots[0].Actor != "t5" || boots[0].Context.Iter != 1 || boots[0].Attrs["checkpoint"] == "" {
		t.Fatalf("bootstrap spans = %+v, want t5 bootstrapping in round 1", boots)
	}
}

// TestQuorumRejectedInVerifiableMode pins the incompatibility: the
// directory's closure gate counts every expected trainer, so m-of-n
// rounds cannot coexist with commitment verification.
func TestQuorumRejectedInVerifiableMode(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, "t%d", true, 2)
	runner := NewScenarioRunner(task, net, &scenario.Plan{})
	runner.SetQuorum(0.5, 10*time.Millisecond)
	if _, _, _, err := runner.RunRound(context.Background()); err == nil {
		t.Fatal("quorum in verifiable mode must be rejected")
	}
}

// TestCorruptUploadQuarantinedEndToEnd is the issue's Byzantine
// acceptance scenario: a trainer whose stored gradient bytes are
// tampered (commitment honest, data corrupt) is caught by the
// BatchVerify per-group fallback, its records are expunged from the
// directory (accumulators uncombined), and after the strike limit it is
// quarantined — while the honest trainers' rounds keep completing and
// the model converges.
func TestCorruptUploadQuarantinedEndToEnd(t *testing.T) {
	task, net, dir, data := newScenarioTask(t, "t%d", true, 2)
	reg := obs.NewRegistry()
	task.session.SetMetrics(reg)
	col := obs.NewSpanCollector(0)
	task.session.SetSpans(col)
	plan, err := scenario.Parse("corrupt:t1@iter1..2")
	if err != nil {
		t.Fatal(err)
	}
	runner := NewScenarioRunner(task, net, plan)

	ctx := context.Background()
	for round := 0; round < 4; round++ {
		metrics, res, applied, err := runner.RunRound(ctx)
		if err != nil {
			t.Fatalf("round %d (%v): %v", round, applied, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied (incomplete %v)", round, res.Incomplete)
		}
	}

	// Both partitions detected the tampered upload in round 1: two
	// strikes, so the quarantine starts at round 2 and the round-2
	// corruption never lands.
	if got := reg.Counter("byzantine_rejects_total").Value(); got != 2 {
		t.Fatalf("byzantine_rejects_total = %d, want 2", got)
	}
	if got := reg.Counter("byzantine_quarantines_total").Value(); got != 1 {
		t.Fatalf("byzantine_quarantines_total = %d, want 1", got)
	}
	q := dir.Quarantined()
	if from, bad := q["t1"]; !bad || from != 2 {
		t.Fatalf("quarantined = %v, want t1 from iter 2", q)
	}
	if got := dir.Stats().Expunged; got != 2 {
		t.Fatalf("expunged = %d, want 2", got)
	}
	// The span stream carries the same story: one reject per partition's
	// fetch, the second of which quarantines t1.
	rejects, _ := spanEvents(col.Spans(), "byzantine_reject")
	quarantines, _ := spanEvents(col.Spans(), "byzantine_quarantine")
	if len(rejects) != 2 || !strings.HasPrefix(rejects[0].Detail, "t1 ") {
		t.Fatalf("byzantine_reject events = %+v, want 2 naming t1", rejects)
	}
	if len(quarantines) != 1 || quarantines[0].Detail != "t1" {
		t.Fatalf("byzantine_quarantine events = %+v, want 1 naming t1", quarantines)
	}

	acc, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("model did not converge despite quarantine: accuracy %v", acc)
	}
}

// TestScenarioRunnerMembershipPlans feeds the membership plan strings the
// tree used to hand to the deleted churn/fault parsers through
// scenario.Parse and the runner, pinning what the old churn-runner
// tests pinned: the per-round applied strings, every round applied, the
// round-1 standby takeover, the failover/bootstrap/repair counters, a
// checkpoint, and convergence with replication whole at the end.
func TestScenarioRunnerMembershipPlans(t *testing.T) {
	cases := []struct {
		name       string
		trainerFmt string
		plan       string
		applied    [][]string // per round; a trailing "…" matches any suffix
		takeoverAt int        // round whose partition-0 takeover is checked (-1: none)
		takeovers  int64
		bootstraps int64
		events     int64
	}{
		{
			// core/churn_test.go's acceptance plan, also iplsbench churn's default.
			name:       "churn-runner-end-to-end",
			trainerFmt: "t%d",
			plan:       "depart:ipfs-03@iter1,crash:agg-p0-0@iter1,crash:t5@iter1,rejoin:t5@iter2,rejoin:agg-p0-0@iter3",
			applied: [][]string{
				nil,
				{"depart ipfs-03 (blocks lost)", "crash agg-p0-0 (partition 0 aggregator)", "crash t5 (trainer)"},
				{"rejoin t5 (trainer, bootstrapped 20 params from checkpoint …"},
				{"rejoin agg-p0-0 (aggregator back in rotation)"},
			},
			takeoverAt: 1, takeovers: 2, bootstraps: 1, events: 5,
		},
		{
			// The Makefile's chaos-churn plan, under iplssim's trainer names.
			name:       "make-chaos-churn",
			trainerFmt: "trainer-%02d",
			plan:       "depart:ipfs-03@iter1,crash:agg-p0-0@iter1,crash:trainer-05@iter1,rejoin:trainer-05@iter2,rejoin:agg-p0-0@iter3",
			applied: [][]string{
				nil,
				{"depart ipfs-03 (blocks lost)", "crash agg-p0-0 (partition 0 aggregator)", "crash trainer-05 (trainer)"},
				{"rejoin trainer-05 (trainer, bootstrapped 20 params from checkpoint …"},
				{"rejoin agg-p0-0 (aggregator back in rotation)"},
			},
			takeoverAt: 1, takeovers: 2, bootstraps: 1, events: 5,
		},
		{
			// README's former -churn example: the aggregator never rejoins,
			// so the standby serves partition 0 from round 1 to the end.
			name:       "readme-churn",
			trainerFmt: "t%d",
			plan:       "depart:ipfs-03@iter2,crash:agg-p0-0@iter1,crash:t5@iter1,rejoin:t5@iter3",
			applied: [][]string{
				nil,
				{"crash agg-p0-0 (partition 0 aggregator)", "crash t5 (trainer)"},
				{"depart ipfs-03 (blocks lost)"},
				{"rejoin t5 (trainer, bootstrapped 20 params from checkpoint …"},
			},
			takeoverAt: 1, takeovers: 3, bootstraps: 1, events: 4,
		},
		{
			// The storage-node half of README's former -faults example and
			// of storage/faults_test.go: crash, then recover (the alias of
			// rejoin) with the datastore intact.
			name:       "storage-crash-recover",
			trainerFmt: "t%d",
			plan:       "crash:ipfs-01@iter1,recover:ipfs-01@iter2",
			applied: [][]string{
				nil,
				{"crash ipfs-01"},
				{"rejoin ipfs-01 (datastore intact)"},
				nil,
			},
			takeoverAt: -1, events: 2,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			task, net, _, data := newScenarioTask(t, tc.trainerFmt, false, 0)
			reg := obs.NewRegistry()
			task.session.SetMetrics(reg)
			net.SetMetrics(reg)
			plan, err := scenario.Parse(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			runner := NewScenarioRunner(task, net, plan)
			runner.SetMetrics(reg)

			accStart, _, err := task.Evaluate(data)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for round, want := range tc.applied {
				metrics, res, applied, err := runner.RunRound(ctx)
				if err != nil {
					t.Fatalf("round %d (%v): %v", round, applied, err)
				}
				if !metrics.Applied || metrics.Round != round {
					t.Fatalf("round %d: metrics %+v (applied %v, incomplete %v)", round, metrics, applied, res.Incomplete)
				}
				if !sameApplied(applied, want) {
					t.Fatalf("round %d applied %q, want %q", round, applied, want)
				}
				if round == tc.takeoverAt {
					if rep := res.Takeovers[0]; rep == nil || rep.ExecutedBy != "agg-p1-0" {
						t.Fatalf("round %d: no standby takeover for partition 0: %+v", round, res.Takeovers)
					}
				}
			}
			if task.Round() != len(tc.applied) {
				t.Fatalf("completed %d rounds, want %d", task.Round(), len(tc.applied))
			}
			accEnd, _, err := task.Evaluate(data)
			if err != nil {
				t.Fatal(err)
			}
			if accEnd < 0.85 || accEnd <= accStart {
				t.Fatalf("did not converge under churn: %v -> %v", accStart, accEnd)
			}
			if got := len(net.UnderReplicated()); got != 0 {
				t.Fatalf("%d blocks under-replicated after final repair", got)
			}
			if got := reg.Gauge("under_replicated_blocks").Value(); got != 0 {
				t.Fatalf("under_replicated_blocks = %v, want 0", got)
			}
			if got := reg.Counter("repair_blocks_total").Value(); got == 0 {
				t.Fatal("repair_blocks_total = 0, want > 0")
			}
			if got := reg.Counter("standby_takeover_total").Value(); got != tc.takeovers {
				t.Fatalf("standby_takeover_total = %d, want %d", got, tc.takeovers)
			}
			if got := reg.Counter("trainer_bootstraps_total").Value(); got != tc.bootstraps {
				t.Fatalf("trainer_bootstraps_total = %d, want %d", got, tc.bootstraps)
			}
			if got := reg.Counter("churn_events_total").Value(); got != tc.events {
				t.Fatalf("churn_events_total = %d, want %d", got, tc.events)
			}
			if _, ok := runner.Checkpoint(); !ok {
				t.Fatal("no checkpoint taken")
			}
		})
	}
}

// sameApplied compares applied descriptions against expectations; a
// want ending in "…" matches any string with that prefix (checkpoint
// CIDs vary with the model).
func sameApplied(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if prefix, ok := strings.CutSuffix(want[i], "…"); ok {
			if !strings.HasPrefix(got[i], prefix) {
				return false
			}
		} else if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestScenarioRunnerStorageMembership is storage's old ApplyStorage test
// against the runner, on the same plan string: a departed node rejoins
// empty, a crashed one recovers with its datastore, role events are told
// apart from storage events, and the closing trainer rejoin — which the
// old parser accepted unexamined — is rejected because trainer-05 never
// crashed.
func TestScenarioRunnerStorageMembership(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, "trainer-%02d", false, 0)
	plan, err := scenario.Parse(
		"depart:ipfs-03@iter0,crash:ipfs-02@iter0,crash:agg-p0-0@iter0," +
			"rejoin:ipfs-02@iter1,rejoin:ipfs-03@iter1,rejoin:trainer-05@iter1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := net.Put(ctx, "ipfs-02", []byte("keeper")); err != nil {
		t.Fatal(err)
	}
	runner := NewScenarioRunner(task, net, plan)

	_, _, applied, err := runner.RunRound(ctx)
	if err != nil {
		t.Fatalf("round 0 (%v): %v", applied, err)
	}
	want := []string{"depart ipfs-03 (blocks lost)", "crash ipfs-02", "crash agg-p0-0 (partition 0 aggregator)"}
	if !sameApplied(applied, want) {
		t.Fatalf("round 0 applied %q, want %q", applied, want)
	}
	if _, err := net.Put(ctx, "ipfs-03", []byte("x")); !errors.Is(err, storage.ErrNodeDeparted) {
		t.Fatalf("put on departed ipfs-03: %v, want ErrNodeDeparted", err)
	}
	if _, err := net.Put(ctx, "ipfs-02", []byte("x")); !errors.Is(err, storage.ErrNodeDown) {
		t.Fatalf("put on crashed ipfs-02: %v, want ErrNodeDown", err)
	}

	_, _, applied, err = runner.RunRound(ctx)
	if err == nil || !strings.Contains(err.Error(), "never crashed") {
		t.Fatalf("round 1: err %v, want the trainer-05 rejoin rejected", err)
	}
	want = []string{"rejoin ipfs-02 (datastore intact)", "rejoin ipfs-03 (empty datastore)"}
	if !sameApplied(applied, want) {
		t.Fatalf("round 1 applied %q, want %q", applied, want)
	}
	crashed, _ := net.Node("ipfs-02")
	if crashed.StoredBlocks() == 0 {
		t.Fatal("ipfs-02 should have recovered with its datastore intact")
	}
	rejoined, _ := net.Node("ipfs-03")
	if rejoined.StoredBlocks() != 0 {
		t.Fatal("ipfs-03 should have rejoined empty")
	}
	for _, id := range []string{"ipfs-02", "ipfs-03"} {
		if _, err := net.Put(ctx, id, []byte("back")); err != nil {
			t.Fatalf("put on rejoined %s: %v", id, err)
		}
	}
}

func TestScenarioRunnerRejectsUnknownParticipant(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, "t%d", false, 0)
	for _, tc := range []struct {
		plan string
		net  *storage.Network
		why  string
	}{
		{"crash:nobody@iter0", net, "unknown participant must fail the round"},
		{"depart:t3@iter0", net, "depart of a non-storage participant must fail"},
		{"crash:ipfs-02@iter0", nil, "without a network, storage nodes are unknown participants"},
	} {
		plan, err := scenario.Parse(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := NewScenarioRunner(task, tc.net, plan).RunRound(context.Background()); err == nil {
			t.Fatal(tc.why)
		}
	}
}

// TestScenarioRunnerSlowWindowSemantics pins the window reading that bit
// iplssim's old -faults alias: an @iterN slow event is in force for
// round N only (the deleted parser read it as "from N onward"), and
// @iterN..M for rounds N through M. The second plan stops inside its
// window, so Finish must clear the fault instead of leaving ipfs-00
// degraded for the network's next user.
func TestScenarioRunnerSlowWindowSemantics(t *testing.T) {
	const delay = 50 * time.Millisecond
	for _, tc := range []struct {
		plan    string
		rounds  int
		slow    []bool     // after each round: is ipfs-00 still slowed?
		applied [][]string // per round
		finish  []string
	}{
		{
			plan:    "slow:ipfs-00@iter1:50ms",
			rounds:  3,
			slow:    []bool{false, true, false},
			applied: [][]string{nil, {"slow ipfs-00 by 50ms"}, {"slow ipfs-00 by 0s"}},
		},
		{
			plan:    "slow:ipfs-00@iter1..3:50ms",
			rounds:  3,
			slow:    []bool{false, true, true},
			applied: [][]string{nil, {"slow ipfs-00 by 50ms"}, nil},
			finish:  []string{"slow ipfs-00 by 0s"},
		},
	} {
		tc := tc
		t.Run(tc.plan, func(t *testing.T) {
			t.Parallel()
			task, net, _, _ := newScenarioTask(t, "t%d", false, 0)
			plan, err := scenario.Parse(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			runner := NewScenarioRunner(task, net, plan)
			ctx := context.Background()
			slowed := func() bool {
				start := time.Now()
				if _, err := net.Put(ctx, "ipfs-00", []byte("probe")); err != nil {
					t.Fatal(err)
				}
				return time.Since(start) >= delay
			}
			for round := 0; round < tc.rounds; round++ {
				metrics, _, applied, err := runner.RunRound(ctx)
				if err != nil || !metrics.Applied {
					t.Fatalf("round %d (%v): applied=%v err=%v", round, applied, metrics.Applied, err)
				}
				if !sameApplied(applied, tc.applied[round]) {
					t.Fatalf("round %d applied %q, want %q", round, applied, tc.applied[round])
				}
				if got := slowed(); got != tc.slow[round] {
					t.Fatalf("after round %d: ipfs-00 slowed = %v, want %v", round, got, tc.slow[round])
				}
			}
			undone, err := runner.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !sameApplied(undone, tc.finish) {
				t.Fatalf("Finish undid %q, want %q", undone, tc.finish)
			}
			if slowed() {
				t.Fatal("Finish left ipfs-00 slowed")
			}
		})
	}
}
