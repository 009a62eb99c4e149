package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ipls/internal/core"
	"ipls/internal/obs"
	"ipls/internal/scenario"
)

// mustParse parses a scenario-plan literal — the gate's churn and
// partition scenarios are written in the same grammar `iplssim
// -scenario` takes.
func mustParse(plan string) *scenario.Plan {
	p, err := scenario.Parse(plan)
	if err != nil {
		panic(err)
	}
	return p
}

// The per-phase benchmark gate: each scenario below runs one protocol
// iteration over the netsim virtual clock with span emission on, folds
// the span stream through obs.BreakdownTrace into per-phase budgets
// (upload, merge_download, sync_wait, ... — the axes of the paper's
// Figs. 5-8), and either records them as a JSON baseline (-baseline-out)
// or checks them against a committed one (-baseline), failing with a
// per-phase delta table when any phase regresses beyond -tolerance.
//
// Because the clock is virtual and the simulator is deterministic, the
// folded budgets are exact: record followed by check on the same tree
// passes with zero delta at zero tolerance, and any change to the byte
// flows or scheduling of a phase moves exactly the budgets it affects.

// gateScenarios are the gated benchmark configurations. Names are stable
// identifiers committed inside baselines — renaming one invalidates the
// baseline on purpose.
var gateScenarios = []struct {
	name string
	cfg  core.SimConfig
}{
	{
		// Fig. 1 working point: merge-and-download with 4 providers.
		// Exercises upload, merge_download, fetch_gradients, aggregate.
		name: "fig1-merge-p4",
		cfg: core.SimConfig{
			Trainers:                16,
			Partitions:              1,
			AggregatorsPerPartition: 1,
			PartitionBytes:          1_300_000,
			StorageNodes:            16,
			ProvidersPerAggregator:  4,
			BandwidthMbps:           10,
		},
	},
	{
		// Fig. 2 working point: 2 aggregators per partition, no merge.
		// Exercises the sync_wait phase the paper's Fig. 7 isolates.
		name: "fig2-sync-a2",
		cfg: core.SimConfig{
			Trainers:                16,
			Partitions:              4,
			AggregatorsPerPartition: 2,
			PartitionBytes:          1_100_000,
			StorageNodes:            8,
			BandwidthMbps:           20,
			StorageBandwidthMbps:    200,
		},
	},
	{
		// The direct-communication baseline ([17]): no storage network,
		// upload and aggregate only. Cheap canary for the transfer core.
		name: "direct",
		cfg: core.SimConfig{
			Trainers:                16,
			Partitions:              1,
			AggregatorsPerPartition: 1,
			PartitionBytes:          1_300_000,
			BandwidthMbps:           10,
			Direct:                  true,
		},
	},
	{
		// Membership churn: a storage departure remaps placement, a
		// crashed aggregator is executed by a standby after the failover
		// timeout, a crashed trainer misses the iteration and a rejoining
		// one bootstraps the checkpoint first. Exercises the bootstrap and
		// takeover phases on top of upload/sync.
		name: "churn",
		cfg: core.SimConfig{
			Trainers:                16,
			Partitions:              2,
			AggregatorsPerPartition: 2,
			PartitionBytes:          1_100_000,
			StorageNodes:            8,
			BandwidthMbps:           20,
			FailoverTimeout:         2 * time.Second,
			Churn: mustParse(
				"depart:ipfs-03@iter0,crash:agg-p0-0@iter0,crash:trainer-06@iter0,rejoin:trainer-07@iter0").Events(),
		},
	},
	{
		// Quorum rounds (§III-D graceful degradation): two stragglers run
		// at a twentieth of everyone's bandwidth, and the aggregator stops
		// waiting at 3/4 of each provider group once the quorum wait
		// passes. Exercises the WaitQuorum cut on the upload_wait and
		// merge_download phases.
		name: "quorum",
		cfg: core.SimConfig{
			Trainers:                16,
			Partitions:              1,
			AggregatorsPerPartition: 1,
			PartitionBytes:          1_300_000,
			StorageNodes:            16,
			ProvidersPerAggregator:  4,
			BandwidthMbps:           10,
			SlowTrainers:            2,
			SlowFactor:              20,
			QuorumFraction:          0.75,
			QuorumWait:              3 * time.Second,
		},
	},
	{
		// A timed partition window compiled from the scenario grammar
		// severs two storage nodes mid-iteration; uploads and merge
		// downloads touching them stall and resume when the window closes.
		// Exercises the LossWindow path end-to-end from a plan string.
		name: "partition",
		cfg: core.SimConfig{
			Trainers:                16,
			Partitions:              2,
			AggregatorsPerPartition: 2,
			PartitionBytes:          1_100_000,
			StorageNodes:            8,
			BandwidthMbps:           20,
			StorageBandwidthMbps:    200,
			LinkLoss: mustParse(
				"partition:mainline|ipfs-02+ipfs-03@400ms..1200ms,slow:trainer-01@0s..800ms:0.25").LossWindows(),
		},
	},
}

// runGateScenarios simulates every scenario and folds its spans into a
// fresh baseline. Spans are re-sessioned under the scenario name so a
// -span-out dump keeps the scenarios' traces distinct.
func runGateScenarios(spanOut string) (obs.Baseline, error) {
	base := obs.Baseline{Version: obs.BaselineVersion, Scenarios: make(map[string]obs.ScenarioBudget)}
	var dump []obs.Span
	for _, sc := range gateScenarios {
		col := &obs.SpanCollector{}
		cfg := sc.cfg
		cfg.Spans = col
		if _, err := core.Simulate(cfg); err != nil {
			return base, fmt.Errorf("scenario %s: %w", sc.name, err)
		}
		spans := col.Spans()
		for i := range spans {
			spans[i].Context.Session = sc.name
		}
		breakdowns := obs.BreakdownTrace(spans)
		if len(breakdowns) == 0 {
			return base, fmt.Errorf("scenario %s: produced no traces", sc.name)
		}
		base.Scenarios[sc.name] = obs.NewScenarioBudget(breakdowns)
		if spanOut != "" {
			dump = append(dump, spans...)
		}
	}
	if spanOut != "" {
		f, err := os.Create(spanOut)
		if err != nil {
			return base, fmt.Errorf("span-out: %w", err)
		}
		w := obs.NewSpanJSONLWriter(f)
		for _, s := range dump {
			w.EmitSpan(s)
		}
		if err := w.Close(); err != nil {
			f.Close()
			return base, fmt.Errorf("span-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return base, fmt.Errorf("span-out: %w", err)
		}
		fmt.Printf("spans: %d spans written to %s\n", w.Emitted(), spanOut)
	}
	return base, nil
}

// gateOptions carries the gate's flag values.
type gateOptions struct {
	baseline    string  // check mode: committed baseline to compare against
	baselineOut string  // record mode: where to write the fresh baseline
	tolerance   float64 // allowed relative regression per phase metric
	spanOut     string  // optional span JSONL dump of the gate run
}

// runGate executes record and/or check mode. In check mode it prints one
// delta table per scenario and returns a non-nil error naming the
// regressed phases when any budget is exceeded.
func runGate(out io.Writer, opts gateOptions) error {
	if opts.baseline == "" && opts.baselineOut == "" {
		return fmt.Errorf("gate needs -baseline (check) or -baseline-out (record)")
	}
	if opts.tolerance < 0 {
		return fmt.Errorf("-tolerance must be non-negative, got %v", opts.tolerance)
	}
	got, err := runGateScenarios(opts.spanOut)
	if err != nil {
		return err
	}
	if opts.baselineOut != "" {
		f, err := os.Create(opts.baselineOut)
		if err != nil {
			return fmt.Errorf("baseline-out: %w", err)
		}
		if err := obs.WriteBaseline(f, got); err != nil {
			f.Close()
			return fmt.Errorf("baseline-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("baseline-out: %w", err)
		}
		fmt.Fprintf(out, "baseline: %d scenario budgets written to %s\n", len(got.Scenarios), opts.baselineOut)
	}
	if opts.baseline == "" {
		return nil
	}
	f, err := os.Open(opts.baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	base, err := obs.ReadBaseline(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("baseline %s: %w", opts.baseline, err)
	}
	var violations []string
	for i, r := range obs.CompareBaselines(base, got, opts.tolerance) {
		if i > 0 {
			fmt.Fprintln(out)
		}
		obs.WriteBudgetReport(out, r)
		violations = append(violations, r.Violations()...)
	}
	if len(violations) > 0 {
		return fmt.Errorf("bench gate: %d budget violation(s): %s",
			len(violations), strings.Join(violations, "; "))
	}
	fmt.Fprintf(out, "\nbench gate: all %d scenarios within budget (tolerance %.1f%%)\n",
		len(base.Scenarios), opts.tolerance*100)
	return nil
}
