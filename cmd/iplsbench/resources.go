package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ipls/internal/group"
	"ipls/internal/obs"
	"ipls/internal/pedersen"
	"ipls/internal/scalar"
)

// The profile experiment: the commitment bench (the paper's dominant
// cost, Fig. 3) run under the resource meter, with the crypto accounting
// hooks wired into the bench registry and optional phase-labeled
// CPU/heap profiles (-cpuprofile/-memprofile). `go tool pprof -tags`
// then slices samples by phase=pedersen_commit / phase=multiexp and
// strategy=..., which is what the ROADMAP's hot-path work needs to see
// before sharding anything.

// wireCryptoAccounting mirrors the group/pedersen accounting hooks into
// the bench registry as crypto_ops_total{op=...} and
// crypto_op_inputs_total{op=...}. The returned func detaches the hooks.
func wireCryptoAccounting(reg *obs.Registry) func() {
	hook := func(op string, n int) func() {
		reg.Counter("crypto_ops_total", "op", op).Inc()
		reg.Counter("crypto_op_inputs_total", "op", op).Add(int64(n))
		return nil
	}
	group.SetAccount(hook)
	pedersen.SetAccount(hook)
	return func() {
		group.SetAccount(nil)
		pedersen.SetAccount(nil)
	}
}

// commitVector builds a deterministic quantized gradient of n params.
func commitVector(params *pedersen.Params, n int) ([]*big.Int, error) {
	rng := rand.New(rand.NewSource(7))
	quant, err := scalar.NewQuantizer(params.Field(), scalar.DefaultShift)
	if err != nil {
		return nil, err
	}
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	return quant.EncodeVec(vec)
}

// commitBudget measures reps commits of an n-param vector and folds them
// into a one-phase scenario budget ("pedersen_commit" with wall/cpu/alloc
// per commit). The gate acceptance test uses record-then-compare over this
// fold to prove an injected allocation regression in the commit path trips
// the alloc dimension. CPU comes from the runtime meter; allocation comes
// from runtime.ReadMemStats, which flushes the per-P allocation caches the
// meter's /gc/heap/allocs:bytes counter only sees in span-sized refills —
// a commit allocates tens of KB, so that counter's single-commit deltas
// are 0 or whole spans. The stop-the-world per read is fine here, off
// every span path.
func commitBudget(n, reps int) (obs.ScenarioBudget, error) {
	params, err := pedersen.Setup(group.Secp256r1Fast(), n, "iplsbench-profile")
	if err != nil {
		return obs.ScenarioBudget{}, err
	}
	vec, err := commitVector(params, n)
	if err != nil {
		return obs.ScenarioBudget{}, err
	}
	meter := obs.RuntimeMeter{}
	var breakdowns []obs.IterationBreakdown
	var ms runtime.MemStats
	t0 := time.Unix(0, 0).UTC()
	for i := 0; i < reps; i++ {
		before := meter.Sample()
		runtime.ReadMemStats(&ms)
		allocBefore := ms.TotalAlloc
		start := time.Now()
		if _, err := params.Commit(vec); err != nil {
			return obs.ScenarioBudget{}, err
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&ms)
		d := meter.Sample().Sub(before)
		d.AllocBytes = int64(ms.TotalAlloc - allocBefore)
		// One synthetic single-span trace per commit: the fold then
		// reuses the exact breakdown/budget path the simulator gate uses.
		ctx := obs.SpanContext{Session: "commit", Iter: i, SpanID: obs.NewSpanID()}
		breakdowns = append(breakdowns, obs.Breakdown([]obs.Span{{
			Name: "pedersen_commit", Actor: "bench", Context: ctx,
			Start: t0, End: t0.Add(wall),
			CPUNanos: d.CPUNanos, AllocBytes: d.AllocBytes,
		}}))
	}
	return obs.NewScenarioBudget(breakdowns), nil
}

// profileExperiment runs the commitment bench under the meter and
// prints per-size wall/cpu/alloc tables.
func profileExperiment(maxParams int) error {
	fmt.Println("== profile: commitment bench under the resource meter ==")
	detach := wireCryptoAccounting(benchReg)
	defer detach()
	fmt.Printf("%-10s %14s %14s %16s\n", "params", "wall/commit", "cpu/commit", "alloc/commit")
	for _, n := range []int{1_000, 10_000, 100_000} {
		if n > maxParams {
			fmt.Printf("%-10d (skipped; raise -max-params to measure)\n", n)
			continue
		}
		budget, err := commitBudget(n, 3)
		if err != nil {
			return err
		}
		p := budget.Phases["pedersen_commit"]
		fmt.Printf("%-10d %14s %14s %15dB\n", n, p.P50.Round(time.Microsecond), p.CPU.Round(time.Microsecond), p.Alloc)
		label := fmt.Sprintf("%d", n)
		recordGauge("bench_commit_seconds", p.P50.Seconds(), "experiment", "profile", "params", label)
		recordGauge("bench_commit_cpu_seconds", p.CPU.Seconds(), "experiment", "profile", "params", label)
		recordGauge("bench_commit_alloc_bytes", float64(p.Alloc), "experiment", "profile", "params", label)
	}
	return nil
}

// profileOutputs starts a CPU profile and/or arranges a heap profile
// dump around the run; the returned func finishes both.
func profileOutputs(cpuOut, memOut string) (func() error, error) {
	var cpuFile *os.File
	if cpuOut != "" {
		f, err := os.Create(cpuOut)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
			fmt.Printf("profile: cpu profile written to %s\n", cpuOut)
		}
		if memOut != "" {
			f, err := os.Create(memOut)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("memprofile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			fmt.Printf("profile: heap profile written to %s\n", memOut)
		}
		return nil
	}, nil
}
