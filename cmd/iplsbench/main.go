// Command iplsbench regenerates every figure of the paper's evaluation
// (§V) plus the extension experiments documented in DESIGN.md.
//
// Usage:
//
//	iplsbench fig1       Fig. 1: aggregation/upload delay vs providers
//	iplsbench fig2       Fig. 2: delays and traffic vs aggregators/partition
//	iplsbench fig3       Fig. 3: SHA-256 vs Pedersen commitment time
//	iplsbench model      §III-E analytic τ model vs simulation
//	iplsbench multiexp   multi-exponentiation strategies (future work [27,28])
//	iplsbench crypto     parallel + precomputed hot path: speedups, batch verify
//	iplsbench baseline   blockchain-FL vs this work, storage & traffic
//	iplsbench converge   decentralized vs centralized FedAvg convergence
//	iplsbench verify     malicious-aggregator detection matrix
//	iplsbench faults     dropout / storage-failure recovery
//	iplsbench churn      membership churn: departures, failover, repair (-churn)
//	iplsbench dirload    directory load reduction: batching + per-host load (§VI)
//	iplsbench hash       proof-friendly MiMC hash vs SHA-256 (§VI)
//	iplsbench profile    commitment bench under the resource meter (-cpuprofile/-memprofile)
//	iplsbench all        everything above
//
// The per-phase regression gate runs deterministic virtual-clock
// scenarios and records or checks per-phase latency budgets:
//
//	iplsbench -baseline-out testdata/baselines/sim.json gate   # record
//	iplsbench -baseline testdata/baselines/sim.json gate       # check
//	iplsbench -baseline sim.json -tolerance 0.05 gate          # 5% slack
//
// Check mode prints a per-phase delta table per scenario and exits
// non-zero naming every phase that exceeds its budget.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ipls/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iplsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("iplsbench", flag.ContinueOnError)
	maxParams := fs.Int("max-params", 100_000, "largest model size for fig3")
	rounds := fs.Int("rounds", 10, "FL rounds for converge/baseline experiments")
	churn := fs.String("churn",
		"depart:ipfs-03@iter1,crash:agg-p0-0@iter1,crash:t5@iter1,rejoin:t5@iter2,rejoin:agg-p0-0@iter3",
		"churn experiment: scenario plan (the grammar of iplssim -scenario)")
	metricsOut := fs.String("metrics-out", "", "write the run's datapoints and per-experiment wall time to this file as JSON")
	baseline := fs.String("baseline", "", "gate: check the run's per-phase budgets against this baseline JSON, exiting non-zero on regression")
	baselineOut := fs.String("baseline-out", "", "gate: record the run's per-phase budgets to this baseline JSON")
	tolerance := fs.Float64("tolerance", 0, "gate: allowed relative regression per phase metric (0.05 = 5%; the virtual clock is exact, so 0 works)")
	spanOut := fs.String("span-out", "", "gate: also dump the scenarios' causal spans to this file as JSON Lines (analyze with iplstrace)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (phase-labeled; inspect with `go tool pprof -tags`)")
	memProfile := fs.String("memprofile", "", "write a heap profile of the run to this file")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: iplsbench [flags] <fig1|fig2|fig3|model|multiexp|crypto|baseline|converge|verify|faults|churn|dirload|hash|store|profile|gate|all>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	finishProfiles, err := profileOutputs(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := finishProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "iplsbench:", perr)
		}
	}()
	gateOpts := gateOptions{baseline: *baseline, baselineOut: *baselineOut, tolerance: *tolerance, spanOut: *spanOut}
	// The gate is its own mode: `iplsbench gate` with at least one of
	// -baseline/-baseline-out, or just the flags with no experiment name.
	if fs.NArg() == 0 && (gateOpts.baseline != "" || gateOpts.baselineOut != "") {
		return runGate(os.Stdout, gateOpts)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one experiment expected")
	}
	if fs.Arg(0) == "gate" {
		return runGate(os.Stdout, gateOpts)
	}
	if gateOpts.baseline != "" || gateOpts.baselineOut != "" || gateOpts.spanOut != "" {
		return fmt.Errorf("-baseline/-baseline-out/-span-out only apply to the gate experiment")
	}
	experiments := map[string]func() error{
		"fig1":      fig1,
		"fig2":      fig2,
		"fig3":      func() error { return fig3(*maxParams) },
		"model":     analyticModel,
		"multiexp":  multiExp,
		"crypto":    cryptoExperiment,
		"baseline":  func() error { return baselines(*rounds) },
		"converge":  func() error { return converge(*rounds) },
		"verify":    verifyMatrix,
		"faults":    faults,
		"churn":     func() error { return churnExperiment(*churn, 4) },
		"dirload":   dirLoad,
		"hash":      hashCost,
		"placement": placement,
		"straggler": straggler,
		"gossip":    func() error { return gossipVsFL(*rounds) },
		"quant":     quantAblation,
		"profile":   func() error { return profileExperiment(*maxParams) },
		"store":     storeExperiment,
	}
	// Each run exports exactly one snapshot, so start from a fresh registry.
	benchReg = obs.NewRegistry()
	timed := func(key string, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		recordGauge("bench_experiment_seconds", time.Since(start).Seconds(), "experiment", key)
		return nil
	}
	name := fs.Arg(0)
	if name == "all" {
		for _, key := range []string{"fig1", "fig2", "fig3", "model", "multiexp", "crypto", "baseline", "converge", "verify", "faults", "churn", "dirload", "hash", "placement", "straggler", "gossip", "quant", "store", "profile"} {
			if err := timed(key, experiments[key]); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			fmt.Println()
		}
		return writeMetrics(*metricsOut)
	}
	exp, ok := experiments[name]
	if !ok {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", name)
	}
	if err := timed(name, exp); err != nil {
		return err
	}
	return writeMetrics(*metricsOut)
}

// writeMetrics dumps the bench registry as JSON when -metrics-out is set.
func writeMetrics(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := benchReg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	fmt.Printf("metrics: snapshot written to %s\n", path)
	return nil
}
