// Command iplssim runs a complete federated-learning task end to end on an
// in-memory deployment of the protocol: synthetic data is split across
// trainers, each round the trainers compute local SGD deltas, the deltas
// flow through the decentralized storage network and aggregators, and the
// global model advances. Optionally a malicious aggregator is injected.
//
// Example:
//
//	iplssim -trainers 16 -partitions 4 -aggregators 2 -rounds 10 \
//	        -verifiable -split non-iid -malicious alter-gradient
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ipls/internal/core"
	"ipls/internal/dag"
	"ipls/internal/directory"
	"ipls/internal/ml"
	"ipls/internal/obs"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iplssim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("iplssim", flag.ContinueOnError)
	var (
		trainers    = fs.Int("trainers", 16, "number of trainers")
		partitions  = fs.Int("partitions", 4, "model partitions")
		aggregators = fs.Int("aggregators", 2, "aggregators per partition (|A_i|)")
		storeNodes  = fs.Int("storage-nodes", 8, "storage nodes")
		providers   = fs.Int("providers", 2, "providers per aggregator (0 = no merge-and-download)")
		rounds      = fs.Int("rounds", 10, "FL rounds")
		verifiable  = fs.Bool("verifiable", false, "enable Pedersen-commitment verification")
		curve       = fs.String("curve", "secp256r1-fast", "commitment curve")
		split       = fs.String("split", "iid", "data split: iid | non-iid")
		modelKind   = fs.String("model", "logistic", "model: logistic | mlp")
		malicious   = fs.String("malicious", "", "inject behavior on agg-p0-0: drop-gradient | alter-gradient | forge-update | dropout")
		seed        = fs.Int64("seed", 42, "dataset seed")
		cleanup     = fs.Bool("cleanup", false, "garbage-collect each iteration's blocks after the round")
		storeDir    = fs.String("store-dir", "", "durable state root: content-addressed blocks under <dir>/blocks and a directory snapshot, restored on the next run (empty = in-memory)")
		cacheBlocks = fs.Int("cache-blocks", 256, "per-node LRU block-cache capacity over the -store-dir disk backend (0 disables)")
		gc          = fs.Bool("gc", false, "after each round, sweep blocks from superseded iterations by keep-set (retains the current round and the churn checkpoint DAG)")
		screen      = fs.Float64("screen", 0, "drop trainer gradients with L2 norm above this bound (0 = off; incompatible with -verifiable)")
		scenarioStr = fs.String("scenario", "", "composed fault scenario: comma-separated events over one grammar, e.g. depart:ipfs-03@iter2,crash:trainer-05@iter1,rejoin:trainer-05@iter3,slow:ipfs-00@iter1..2:50ms,flaky:ipfs-02@iter0:0.3,partition:mainline|ipfs-01+trainer-02@iter3..4,corrupt:trainer-01@iter2,late:trainer-03@iter1")
		quorum      = fs.Float64("quorum", 0, "quorum fraction in (0,1): aggregators proceed with ceil(q*n) of n gradients after -quorum-wait (incompatible with -verifiable)")
		quorumWait  = fs.Duration("quorum-wait", 200*time.Millisecond, "how long aggregators wait for stragglers before closing a quorum round")
		minAccuracy = fs.Float64("min-accuracy", 0, "fail the run if the final model accuracy is below this bound (0 = off; the chaos-soak convergence gate)")
		spanSample  = fs.String("span-sample", "", "sample spans before -span-out: slowest=N,rate=F (off = keep everything)")
		spanOut     = fs.String("span-out", "", "write causal spans to this file as JSON Lines (analyze with iplstrace)")
		rotateMB    = fs.Int("rotate-mb", 0, "rotate the -span-out JSONL file at this size in MiB, keeping one predecessor (0 = unbounded)")
		metricsOut  = fs.String("metrics-out", "", "write the final metrics registry snapshot to this file as JSON")
		scoreboard  = fs.Bool("scoreboard", false, "print the cluster scoreboard after the run: per-node metrics rolled up into percentiles and top-K outliers")
		watch       = fs.Bool("watch", false, "run the round watchdog over the span stream and print a health summary after the run")
		stuckAfter  = fs.Duration("stuck-after", 10*time.Second, "with -watch, report stuck_round when no span ends for this long")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	splan, err := scenario.Parse(*scenarioStr)
	if err != nil {
		return err
	}
	if !splan.Empty() && *malicious != "" {
		return fmt.Errorf("-scenario drives participant behaviors itself; drop -malicious")
	}

	data := ml.Blobs(60**trainers, 8, 4, 1.2, *seed)
	var m ml.Model
	switch *modelKind {
	case "logistic":
		m = ml.NewLogistic(8, 4)
	case "mlp":
		m = ml.NewMLP(8, 16, 4, *seed)
	default:
		return fmt.Errorf("unknown model %q", *modelKind)
	}

	names := make([]string, *trainers)
	for i := range names {
		names[i] = fmt.Sprintf("trainer-%02d", i)
	}
	nodes := make([]string, *storeNodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("ipfs-%02d", i)
	}
	// Under a scenario the schedule deadlines do real work: crashed or
	// partitioned trainers cost a full t_train wait, and standby failover
	// adds another, so the generous fault-free t_train would stall those
	// rounds for minutes.
	tTrain, tSync := time.Minute, 2*time.Second
	if !splan.Empty() || *quorum > 0 {
		tTrain, tSync = 2*time.Second, 10*time.Second
	}
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID:                  "iplssim",
		ModelDim:                m.Dim(),
		Partitions:              *partitions,
		Trainers:                names,
		AggregatorsPerPartition: *aggregators,
		StorageNodes:            nodes,
		ProvidersPerAggregator:  *providers,
		Verifiable:              *verifiable,
		Curve:                   *curve,
		ScreenNorm:              *screen,
		TTrain:                  tTrain,
		TSync:                   tSync,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		return err
	}
	// The session runs on the network and directory directly: injected
	// storage faults are absorbed by its own recovery (uploads to another
	// node, reads by content, degraded merges) instead of failing the round.
	var (
		sess *core.Session
		net  *storage.Network
		dir  *directory.Service
	)
	if *storeDir != "" {
		stack, err := core.OpenDurableStack(cfg, core.DurableOptions{
			StoreDir: *storeDir, CacheBlocks: *cacheBlocks, Replicas: 2,
		})
		if err != nil {
			return err
		}
		defer stack.Close()
		sess, net, dir = stack.Session, stack.Network, stack.Dir
		if stack.Restored() {
			fmt.Printf("restored durable state from %s\n", *storeDir)
		}
	} else {
		sess, net, dir, err = core.NewLocalStack(cfg, 2)
		if err != nil {
			return err
		}
	}
	net.SetFaultSeed(*seed) // flaky-node coin flips reproduce under -seed

	reg := obs.NewRegistry()

	var splits []*ml.Dataset
	if *split == "non-iid" {
		splits, err = data.SplitLabelSkew(*trainers, 2, *seed+1)
	} else {
		splits, err = data.SplitIID(*trainers, *seed+1)
	}
	if err != nil {
		return err
	}
	locals := make(map[string]*ml.Dataset, *trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	task, err := core.NewTask(sess, m, locals,
		ml.SGDConfig{LearningRate: 0.2, Epochs: 2, BatchSize: 32}, m.Params())
	if err != nil {
		return err
	}

	var runner *core.ScenarioRunner
	if !splan.Empty() || *quorum > 0 {
		runner = core.NewScenarioRunner(task, net, splan)
		runner.SetQuorum(*quorum, *quorumWait)
		runner.SetMetrics(reg)
	}

	var behaviors map[string]core.Behavior
	if *malicious != "" {
		b, err := parseBehavior(*malicious)
		if err != nil {
			return err
		}
		behaviors = map[string]core.Behavior{core.AggregatorID(0, 0): b}
		fmt.Printf("injecting %s on %s\n", b, core.AggregatorID(0, 0))
	}

	sess.SetMetrics(reg)
	net.SetMetrics(reg)

	var spanSink *obs.SpanJSONLWriter
	var sampler *obs.SpanSampler
	var spanSinks obs.MultiSpanSink
	var wd *obs.Watchdog
	if *watch {
		wd = obs.NewWatchdog(*stuckAfter)
		spanSinks = append(spanSinks, wd)
	}
	if *spanOut != "" {
		f, err := obs.NewRotatingFile(*spanOut, int64(*rotateMB)<<20)
		if err != nil {
			return fmt.Errorf("span-out: %w", err)
		}
		defer f.Close()
		spanSink = obs.NewSpanJSONLWriter(f)
		var fileSink obs.SpanSink = spanSink
		slowest, rate, err := obs.ParseSpanSample(*spanSample)
		if err != nil {
			return err
		}
		if slowest > 0 || rate < 1 {
			sampler = obs.NewSpanSampler(spanSink, slowest, rate, *seed)
			fileSink = sampler
		}
		spanSinks = append(spanSinks, fileSink)
	} else if *spanSample != "" {
		return fmt.Errorf("-span-sample needs -span-out")
	}
	if len(spanSinks) > 0 {
		sess.SetSpans(spanSinks)
		// The storage network emits the "merge" spans that hang under the
		// aggregators' merge_download spans.
		net.SetSpans(spanSinks)
	}

	fmt.Printf("model=%s dim=%d trainers=%d partitions=%d |A_i|=%d verifiable=%v split=%s\n",
		*modelKind, m.Dim(), *trainers, *partitions, *aggregators, *verifiable, *split)
	start := 0
	if *storeDir != "" {
		// Catch up on rounds a previous process life completed: replay their
		// published updates into the model and continue numbering after them.
		replayed, err := task.Resume(context.Background())
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		if replayed > 0 {
			fmt.Printf("resumed: replayed %d completed rounds, continuing at round %d\n", replayed, task.Round())
		}
		start = task.Round()
	}
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "round", "loss", "accuracy", "applied", "detected")
	var finalAcc float64
	for r := start; r < start+*rounds; r++ {
		var metrics core.RoundMetrics
		if runner != nil {
			var injected []string
			metrics, _, injected, err = runner.RunRound(context.Background())
			for _, ev := range injected {
				fmt.Printf("scenario round %d: %s\n", r, ev)
			}
		} else {
			metrics, _, err = task.RunRound(context.Background(), core.RoundOptions{Behaviors: behaviors})
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		acc, _, err := task.Evaluate(data)
		if err != nil {
			return err
		}
		finalAcc = acc
		extra := ""
		if metrics.LateFolded > 0 {
			extra = fmt.Sprintf("   (+%d late delta(s) folded)", metrics.LateFolded)
		}
		fmt.Printf("%-8d %10.4f %10.3f %10v %10v%s\n", r, metrics.Loss, acc, metrics.Applied, metrics.Detected, extra)
		if *cleanup {
			if _, err := sess.CleanupIteration(context.Background(), r); err != nil {
				return fmt.Errorf("cleanup round %d: %w", r, err)
			}
		}
		if *gc {
			opts := core.GCOptions{KeepIters: []int{r}}
			if runner != nil {
				if ref, ok := runner.Checkpoint(); ok {
					opts.KeepRoots = []dag.Ref{ref}
				}
			}
			rep, err := sess.GCSuperseded(context.Background(), opts)
			if err != nil {
				return fmt.Errorf("gc round %d: %w", r, err)
			}
			fmt.Printf("gc round %d: %d scanned, %d kept, %d collected, %.1f KB freed\n",
				r, rep.Scanned, rep.Kept, rep.Collected, float64(rep.BytesFreed)/1e3)
		}
	}
	if runner != nil {
		healed, err := runner.Finish(context.Background())
		if err != nil {
			return err
		}
		for _, ev := range healed {
			fmt.Printf("scenario end: %s\n", ev)
		}
	}
	stats := dir.Stats()
	fmt.Printf("directory traffic: %d publishes (%d requests), %d lookups, %d verifications, %d rejections\n",
		stats.Publishes, stats.Requests, stats.Lookups, stats.Verifications, stats.Rejections)
	if stats.Expunged > 0 || len(dir.Quarantined()) > 0 {
		var banned []string
		for tr, from := range dir.Quarantined() {
			banned = append(banned, fmt.Sprintf("%s (from iter %d)", tr, from))
		}
		fmt.Printf("byzantine: %d gradient(s) expunged, quarantined: %s\n",
			stats.Expunged, strings.Join(banned, ", "))
	}
	if put, get, merge := reg.Counter("failovers_total", "op", "put").Value(),
		reg.Counter("failovers_total", "op", "get").Value(),
		reg.Counter("failovers_total", "op", "merge_get").Value(); put+get+merge > 0 {
		fmt.Printf("recovery: %d failovers absorbed (%d put, %d get, %d merge_get)\n", put+get+merge, put, get, merge)
	}
	if runner != nil {
		fmt.Printf("churn: %d events, %d standby takeovers, %d trainer bootstraps, %d blocks repaired, %d under-replicated\n",
			reg.Counter("churn_events_total").Value(),
			reg.Counter("standby_takeover_total").Value(),
			reg.Counter("trainer_bootstraps_total").Value(),
			reg.Counter("repair_blocks_total").Value(),
			int64(reg.Gauge("under_replicated_blocks").Value()))
	}
	fmt.Printf("storage footprint after run: %.2f MB across %d nodes\n",
		float64(net.TotalStoredBytes())/1e6, len(cfg.StorageNodes))
	if spanSink != nil {
		if sampler != nil {
			sampler.Flush() // release the retained slowest spans
		}
		if err := spanSink.Close(); err != nil {
			return fmt.Errorf("span-out: %w", err)
		}
		if sampler != nil {
			seen, passed := sampler.Stats()
			fmt.Printf("spans: %d of %d sampled, %d written to %s (%d dropped)\n",
				passed, seen, spanSink.Emitted(), *spanOut, spanSink.Dropped())
		} else {
			fmt.Printf("spans: %d spans written to %s (%d dropped)\n", spanSink.Emitted(), *spanOut, spanSink.Dropped())
		}
	}
	if wd != nil {
		st := wd.Status(time.Now())
		fmt.Printf("watchdog: %d heartbeat phases, max gap %v, %d firing alerts, %d stragglers\n",
			wd.Phases(), wd.MaxGap().Round(time.Millisecond), len(st.Firing), len(st.Stragglers))
		for _, name := range st.Firing {
			fmt.Printf("  firing: %s\n", name)
		}
		for _, s := range st.Stragglers {
			fmt.Printf("  straggler: %s %s iter %d %.1fx its iteration's median\n", s.Actor, s.Phase, s.Iter, s.Ratio)
		}
	}
	if *scoreboard {
		fmt.Println("-- cluster scoreboard --")
		obs.WriteScoreboard(os.Stdout, obs.MergeSnapshots(obs.SplitByLabel(reg.Snapshot(), "node"), 5))
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("metrics-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		fmt.Printf("metrics: snapshot written to %s\n", *metricsOut)
	}
	if q := reg.Counter("quorum_proceed_total").Value(); q > 0 {
		fmt.Printf("quorum: %d round-phase(s) closed early at %g of the gradient set\n", q, *quorum)
	}
	if *minAccuracy > 0 && finalAcc < *minAccuracy {
		return fmt.Errorf("final accuracy %.3f below the -min-accuracy bound %.3f", finalAcc, *minAccuracy)
	}
	return nil
}

func parseBehavior(s string) (core.Behavior, error) {
	switch s {
	case "drop-gradient":
		return core.BehaviorDropGradient, nil
	case "alter-gradient":
		return core.BehaviorAlterGradient, nil
	case "forge-update":
		return core.BehaviorForgeUpdate, nil
	case "dropout":
		return core.BehaviorDropout, nil
	default:
		return 0, fmt.Errorf("unknown behavior %q", s)
	}
}
