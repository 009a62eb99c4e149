package main

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"time"

	"ipls/internal/core"
	"ipls/internal/group"
	"ipls/internal/ml"
	"ipls/internal/obs"
	"ipls/internal/scalar"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

// multiExp ablates the multi-exponentiation strategies: the paper's naive
// implementation against the optimizations it cites as future work
// (Möller '01 windowing; Pippenger buckets).
func multiExp() error {
	fmt.Println("== Multi-exponentiation ablation (secp256k1) ==")
	fmt.Printf("%-8s %14s %14s %14s\n", "n", "naive", "windowed", "pippenger")
	curve := group.Secp256k1()
	field := scalar.NewField(curve.N)
	quant, err := scalar.NewQuantizer(field, scalar.DefaultShift)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{64, 256, 1024, 4096} {
		points := make([]group.Point, n)
		scalars := make([]*big.Int, n)
		for i := range points {
			points[i] = curve.HashToPoint("multiexp", i)
			s, err := quant.Encode(rng.NormFloat64())
			if err != nil {
				return err
			}
			scalars[i] = s
		}
		times := make(map[group.MultiExpStrategy]time.Duration)
		for _, strat := range []group.MultiExpStrategy{group.StrategyNaive, group.StrategyWindowed, group.StrategyPippenger} {
			start := time.Now()
			if _, err := curve.MultiScalarMult(points, scalars, strat); err != nil {
				return err
			}
			times[strat] = time.Since(start)
		}
		fmt.Printf("%-8d %14s %14s %14s\n", n,
			round(times[group.StrategyNaive]),
			round(times[group.StrategyWindowed]),
			round(times[group.StrategyPippenger]))
	}
	return nil
}

// converge demonstrates the §V claim that the decentralized protocol's
// convergence equals centralized FedAvg, on IID and label-skewed splits.
func converge(rounds int) error {
	fmt.Println("== Convergence: decentralized vs centralized FedAvg ==")
	for _, split := range []string{"iid", "non-iid"} {
		task, eval, err := buildMLTask(split == "non-iid")
		if err != nil {
			return err
		}
		fmt.Printf("-- %s split, 8 trainers, softmax regression --\n", split)
		fmt.Printf("%-8s %12s %12s %16s\n", "round", "acc (dec)", "loss", "max |dec-cen|")
		for r := 0; r < rounds; r++ {
			cen, err := task.CentralizedRound(r)
			if err != nil {
				return err
			}
			metrics, _, err := task.RunRound(context.Background(), core.RoundOptions{})
			if err != nil {
				return err
			}
			worst := 0.0
			for i, g := range task.Global() {
				if d := math.Abs(g - cen[i]); d > worst {
					worst = d
				}
			}
			acc, _, err := task.Evaluate(eval)
			if err != nil {
				return err
			}
			fmt.Printf("%-8d %12.3f %12.4f %16.2e\n", r, acc, metrics.Loss, worst)
		}
	}
	fmt.Println("max |dec-cen| stays at fixed-point quantization noise (~1e-7): the aggregates are identical")
	return nil
}

// quantAblation sweeps the fixed-point shift — the one numerical design
// choice this reproduction makes — and measures the deviation from exact
// centralized FedAvg it induces, justifying the 24-bit default.
func quantAblation() error {
	fmt.Println("== Fixed-point quantization ablation ==")
	fmt.Printf("%-8s %18s %14s %12s\n", "shift", "max |dec - cen|", "theory 2^-s", "accuracy")
	for _, shift := range []uint{8, 12, 16, 24, 40} {
		worst, acc, err := runQuantTrial(shift)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %18.2e %14.2e %12.3f\n", shift, worst, math.Pow(2, -float64(shift)), acc)
	}
	fmt.Println("the deviation tracks the 2^-shift quantization step; at the default 24 bits it is")
	fmt.Println("~1e-8 — far below SGD noise — while leaving >200 bits of summation headroom")
	return nil
}

func runQuantTrial(shift uint) (worst, acc float64, err error) {
	const trainers = 8
	m := ml.NewLogistic(4, 4)
	data := ml.Blobs(480, 4, 4, 0.8, 77)
	names := make([]string, trainers)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: fmt.Sprintf("quant-%d", shift), ModelDim: m.Dim(), Partitions: 4,
		Trainers: names, AggregatorsPerPartition: 1,
		StorageNodes: []string{"s0", "s1"},
		QuantShift:   shift,
		TTrain:       5 * time.Second, TSync: 5 * time.Second,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	sess, _, _, err := core.NewLocalStack(cfg, 1)
	if err != nil {
		return 0, 0, err
	}
	splits, err := data.SplitIID(trainers, 78)
	if err != nil {
		return 0, 0, err
	}
	locals := make(map[string]*ml.Dataset, trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	task, err := core.NewTask(sess, m, locals,
		ml.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}, m.Params())
	if err != nil {
		return 0, 0, err
	}
	for r := 0; r < 3; r++ {
		cen, err := task.CentralizedRound(r)
		if err != nil {
			return 0, 0, err
		}
		if _, _, err := task.RunRound(context.Background(), core.RoundOptions{}); err != nil {
			return 0, 0, err
		}
		for i, g := range task.Global() {
			if d := math.Abs(g - cen[i]); d > worst {
				worst = d
			}
		}
	}
	acc, _, err = task.Evaluate(data)
	return worst, acc, err
}

// verifyMatrix runs every malicious behavior with and without verifiable
// aggregation, reporting detection (§IV / §III-A).
func verifyMatrix() error {
	fmt.Println("== Malicious-aggregator detection matrix ==")
	fmt.Printf("%-16s %-12s %-10s %-10s %-22s\n", "behavior", "verifiable", "detected", "blocked", "recovered-by-peer")
	for _, verifiable := range []bool{false, true} {
		for _, b := range []core.Behavior{core.BehaviorDropGradient, core.BehaviorAlterGradient, core.BehaviorForgeUpdate} {
			for _, peers := range []int{1, 2} {
				detected, blocked, recovered, err := runMaliciousRound(verifiable, b, peers)
				if err != nil {
					return err
				}
				label := "sole aggregator"
				if peers == 2 {
					label = "peer aggregator present"
				}
				fmt.Printf("%-16s %-12v %-10v %-10v %-22s\n",
					b, verifiable, detected, blocked, boolWord(recovered, label))
			}
		}
	}
	return nil
}

func boolWord(b bool, context string) string {
	if b {
		return "yes (" + context + ")"
	}
	return "no (" + context + ")"
}

func runMaliciousRound(verifiable bool, b core.Behavior, aggsPerPartition int) (detected, blocked, recovered bool, err error) {
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID:                  fmt.Sprintf("verify-%v-%v-%d", verifiable, b, aggsPerPartition),
		ModelDim:                24,
		Partitions:              2,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: aggsPerPartition,
		StorageNodes:            []string{"s0", "s1"},
		Verifiable:              verifiable,
		TTrain:                  2 * time.Second,
		TSync:                   500 * time.Millisecond,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		return false, false, false, err
	}
	sess, _, _, err := core.NewLocalStack(cfg, 1)
	if err != nil {
		return false, false, false, err
	}
	rng := rand.New(rand.NewSource(3))
	deltas := make(map[string][]float64)
	for _, tr := range cfg.Trainers {
		d := make([]float64, 24)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		deltas[tr] = d
	}
	evil := core.AggregatorID(0, 0)
	res, err := sess.RunIteration(context.Background(), 0, deltas,
		map[string]core.Behavior{evil: b})
	if err != nil {
		return false, false, false, err
	}
	detected = res.Detected()
	blocked = len(res.Incomplete) > 0
	for _, rep := range res.Reports {
		if len(rep.TookOverFor) > 0 {
			recovered = true
		}
	}
	return detected, blocked, recovered, nil
}

// faults exercises the availability mechanisms: aggregator dropout takeover
// and storage-node failure with replication (§III-D, §VI).
func faults() error {
	fmt.Println("== Fault injection ==")

	// Aggregator dropout.
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "faults-agg", ModelDim: 24, Partitions: 2,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: 2,
		StorageNodes:            []string{"s0", "s1", "s2"},
		TTrain:                  2 * time.Second,
		TSync:                   400 * time.Millisecond,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		return err
	}
	sess, _, _, err := core.NewLocalStack(cfg, 2)
	if err != nil {
		return err
	}
	deltas := make(map[string][]float64)
	for _, tr := range cfg.Trainers {
		deltas[tr] = make([]float64, 24)
	}
	res, err := sess.RunIteration(context.Background(), 0, deltas,
		map[string]core.Behavior{core.AggregatorID(0, 1): core.BehaviorDropout})
	if err != nil {
		return err
	}
	fmt.Printf("aggregator dropout: completed=%v, takeover by %s\n",
		len(res.Incomplete) == 0, res.Reports[core.AggregatorID(0, 0)].TookOverFor)

	// Storage-node failure with replication.
	cfg2, err := core.NewConfig(core.TaskSpec{
		TaskID: "faults-store", ModelDim: 24, Partitions: 2,
		Trainers:                []string{"t0", "t1"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1", "s2"},
		TTrain:                  2 * time.Second, TSync: 2 * time.Second,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		return err
	}
	sess2, net2, _, err := core.NewLocalStack(cfg2, 2)
	if err != nil {
		return err
	}
	for _, tr := range cfg2.Trainers {
		if err := sess2.TrainerUpload(context.Background(), tr, 0, make([]float64, 24)); err != nil {
			return err
		}
	}
	if err := net2.Fail("s0"); err != nil {
		return err
	}
	ok := true
	for _, ref := range cfg2.AllAggregators() {
		if _, err := sess2.AggregatorRun(context.Background(), ref.ID, ref.Partition, 0, core.BehaviorHonest); err != nil {
			ok = false
		}
	}
	if _, err := sess2.TrainerCollect(context.Background(), 0); err != nil {
		ok = false
	}
	fmt.Printf("storage node failure with 2x replication: round completed=%v\n", ok)
	return nil
}

func buildMLTask(nonIID bool) (*core.Task, *ml.Dataset, error) {
	const trainers = 8
	m := ml.NewLogistic(4, 4)
	data := ml.Blobs(480, 4, 4, 0.8, 77)
	names := make([]string, trainers)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "converge", ModelDim: m.Dim(), Partitions: 4,
		Trainers: names, AggregatorsPerPartition: 2,
		StorageNodes:           []string{"s0", "s1", "s2", "s3"},
		ProvidersPerAggregator: 2,
		Verifiable:             true,
		TTrain:                 5 * time.Second, TSync: 5 * time.Second,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	sess, _, _, err := core.NewLocalStack(cfg, 1)
	if err != nil {
		return nil, nil, err
	}
	var splits []*ml.Dataset
	if nonIID {
		splits, err = data.SplitLabelSkew(trainers, 2, 78)
	} else {
		splits, err = data.SplitIID(trainers, 78)
	}
	if err != nil {
		return nil, nil, err
	}
	locals := make(map[string]*ml.Dataset, trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	task, err := core.NewTask(sess, m, locals,
		ml.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}, m.Params())
	if err != nil {
		return nil, nil, err
	}
	return task, data, nil
}

// churnExperiment drives an ML task through a scenario plan — storage
// departures, aggregator crashes and trainer crash/rejoin — and reports
// convergence together with the repair and failover counters. The default
// plan exercises every event kind; -churn substitutes another.
func churnExperiment(planText string, rounds int) error {
	fmt.Println("== Churn-tolerant training ==")
	plan, err := scenario.Parse(planText)
	if err != nil {
		return err
	}
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
		TaskID: "churn-bench", ModelDim: m.Dim(), Partitions: 2,
		Trainers: names, AggregatorsPerPartition: 1,
		StorageNodes: stores,
		TTrain:       400 * time.Millisecond, TSync: 5 * time.Second,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		return err
	}
	sess, net, _, err := core.NewLocalStack(cfg, 2)
	if err != nil {
		return err
	}
	net.SetPlacement(storage.PlacementRendezvous)
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	net.SetMetrics(reg)
	splits, err := data.SplitIID(trainers, 78)
	if err != nil {
		return err
	}
	locals := make(map[string]*ml.Dataset, trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	task, err := core.NewTask(sess, m, locals,
		ml.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}, m.Params())
	if err != nil {
		return err
	}
	runner := core.NewScenarioRunner(task, net, plan)
	runner.SetMetrics(reg)
	fmt.Printf("plan: %d events over %d rounds\n", len(plan.Events()), rounds)
	fmt.Printf("%-8s %10s %10s %10s  %s\n", "round", "loss", "accuracy", "applied", "churn")
	for r := 0; r < rounds; r++ {
		metrics, _, applied, err := runner.RunRound(context.Background())
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		acc, _, err := task.Evaluate(data)
		if err != nil {
			return err
		}
		churned := "-"
		if len(applied) > 0 {
			churned = fmt.Sprint(applied)
		}
		fmt.Printf("%-8d %10.4f %10.3f %10v  %s\n", r, metrics.Loss, acc, metrics.Applied, churned)
	}
	underRepl := int64(reg.Gauge("under_replicated_blocks").Value())
	fmt.Printf("repair: %d blocks re-replicated, %d under-replicated after final scan\n",
		reg.Counter("repair_blocks_total").Value(), underRepl)
	fmt.Printf("failover: %d standby takeovers, %d trainer bootstraps\n",
		reg.Counter("standby_takeover_total").Value(),
		reg.Counter("trainer_bootstraps_total").Value())
	recordGauge("churn_under_replicated_final", float64(underRepl))
	recordGauge("churn_repaired_blocks", float64(reg.Counter("repair_blocks_total").Value()))
	return nil
}
