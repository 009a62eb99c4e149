package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipls/internal/obs"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"warp-drive"}); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
	if err := run(nil); err == nil {
		t.Fatal("expected missing-argument error")
	}
	if err := run([]string{"-bogus-flag", "fig1"}); err == nil {
		t.Fatal("expected flag error")
	}
}

func TestFastExperimentsRun(t *testing.T) {
	// The simulation- and accounting-based experiments are cheap enough
	// to smoke-test; the crypto-heavy ones are exercised via benchmarks.
	for _, name := range []string{"fig1", "fig2", "model", "verify", "faults", "dirload"} {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := run([]string{name}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBaselineAndConvergeWithFewRounds(t *testing.T) {
	if err := run([]string{"-rounds", "1", "converge"}); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsOutExportsDatapoints checks that -metrics-out writes a JSON
// snapshot carrying both the experiment's datapoints and its wall time.
func TestMetricsOutExportsDatapoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-metrics-out", path, "fig1"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gauges[`bench_experiment_seconds{experiment="fig1"}`] <= 0 {
		t.Fatalf("missing experiment wall time: %v", snap.Gauges)
	}
	key := `bench_delay_seconds{experiment="fig1",metric="total",providers="4"}`
	if snap.Gauges[key] <= 0 {
		t.Fatalf("missing fig1 datapoint %s: %v", key, snap.Gauges)
	}
}

func TestRound(t *testing.T) {
	if round(1234567*time.Nanosecond) != time.Millisecond {
		t.Fatalf("round() = %v", round(1234567*time.Nanosecond))
	}
}

func TestRunMaliciousRoundMatrixEntry(t *testing.T) {
	detected, blocked, recovered, err := runMaliciousRound(true, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("verifiable mode must detect")
	}
	if blocked {
		t.Fatal("peer present: the round must be recovered, not blocked")
	}
	if !recovered {
		t.Fatal("peer should have taken over")
	}
}
