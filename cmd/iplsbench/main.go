// Command iplsbench regenerates every figure of the paper's evaluation
// (§V) plus the extension experiments documented in DESIGN.md.
//
// Usage:
//
//	iplsbench [flags] <experiment>
//
// `iplsbench -h` lists the experiments, one line each; `all` runs every
// one in that order.
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
	rounds := fs.Int("rounds", 10, "FL rounds for the converge experiment")
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
	// The one list of experiments: `all` runs them in this order and the
	// usage text is generated from it.
	experiments := []struct {
		name, blurb string
		fn          func() error
	}{
		{"fig1", "Fig. 1: aggregation/upload delay vs providers", fig1},
		{"fig2", "Fig. 2: delays and traffic vs aggregators/partition", fig2},
		{"fig3", "Fig. 3: SHA-256 vs Pedersen commitment time (-max-params)", func() error { return fig3(*maxParams) }},
		{"model", "§III-E analytic τ model vs simulation", analyticModel},
		{"multiexp", "multi-exponentiation strategies (future work [27,28])", multiExp},
		{"crypto", "parallel + precomputed hot path: speedups, batch verify", cryptoExperiment},
		{"converge", "decentralized vs centralized FedAvg convergence (-rounds)", func() error { return converge(*rounds) }},
		{"verify", "malicious-aggregator detection matrix", verifyMatrix},
		{"faults", "dropout / storage-failure recovery", faults},
		{"churn", "membership churn: departures, failover, repair (-churn)", func() error { return churnExperiment(*churn, 4) }},
		{"dirload", "directory load reduction: batching + per-host load (§VI)", dirLoad},
		{"placement", "ring vs rendezvous replica placement (§VI)", placement},
		{"straggler", "stragglers and the t_train cutoff (§III-D)", straggler},
		{"quant", "fixed-point quantization shift vs exact FedAvg", quantAblation},
		{"store", "block-store backends: mem vs fs vs fs+cache", storeExperiment},
		{"profile", "commitment bench under the resource meter (-cpuprofile/-memprofile)", func() error { return profileExperiment(*maxParams) }},
	}
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintln(out, "usage: iplsbench [flags] <experiment|gate|all>")
		fmt.Fprintln(out, "\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(out, "  %-10s %s\n", e.name, e.blurb)
		}
		fmt.Fprintf(out, "  %-10s %s\n", "all", "every experiment above, in order")
		fmt.Fprintf(out, "  %-10s %s\n\nflags:\n", "gate", "per-phase regression gate (-baseline/-baseline-out)")
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
	// Each run exports exactly one snapshot, so start from a fresh registry.
	benchReg = obs.NewRegistry()
	name := fs.Arg(0)
	ran := false
	for _, e := range experiments {
		if name != "all" && name != e.name {
			continue
		}
		start := time.Now()
		if err := e.fn(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		recordGauge("bench_experiment_seconds", time.Since(start).Seconds(), "experiment", e.name)
		if name == "all" {
			fmt.Println()
		}
		ran = true
	}
	if !ran {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", name)
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
