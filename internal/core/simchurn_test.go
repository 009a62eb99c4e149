package core

import (
	"strings"
	"testing"
	"time"

	"ipls/internal/scenario"
)

func churnSimConfig() SimConfig {
	return SimConfig{
		Trainers:                8,
		Partitions:              2,
		AggregatorsPerPartition: 2,
		PartitionBytes:          500_000,
		StorageNodes:            4,
		BandwidthMbps:           10,
	}
}

func simEvents(t *testing.T, plan string) []scenario.Event {
	t.Helper()
	p, err := scenario.Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	return p.Events()
}

func TestSimChurnDeterministic(t *testing.T) {
	cfg := churnSimConfig()
	cfg.Churn = simEvents(t,
		"depart:ipfs-03@iter0,crash:agg-p0-0@iter0,crash:trainer-06@iter0,rejoin:trainer-07@iter0")
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("churn simulation not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Takeovers != 1 {
		t.Fatalf("Takeovers = %d, want 1", a.Takeovers)
	}
	if a.Bootstraps != 1 {
		t.Fatalf("Bootstraps = %d, want 1", a.Bootstraps)
	}
	if a.MissedGradients != cfg.Partitions {
		t.Fatalf("MissedGradients = %d, want %d (one crashed trainer)", a.MissedGradients, cfg.Partitions)
	}
}

func TestSimChurnTakeoverDelaysIteration(t *testing.T) {
	base, err := Simulate(churnSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if base.Takeovers != 0 || base.Bootstraps != 0 {
		t.Fatalf("healthy run reported churn: %+v", base)
	}
	cfg := churnSimConfig()
	cfg.Churn = simEvents(t, "crash:agg-p0-0@iter0")
	cfg.FailoverTimeout = 2 * time.Second
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Takeovers != 1 {
		t.Fatalf("Takeovers = %d, want 1", res.Takeovers)
	}
	// The takeover waits out the failover timeout before redoing the
	// crashed role, so the iteration finishes strictly later.
	if res.TotalDelay <= base.TotalDelay {
		t.Fatalf("takeover run (%v) should be slower than healthy run (%v)", res.TotalDelay, base.TotalDelay)
	}
	if res.TotalDelay < cfg.FailoverTimeout {
		t.Fatalf("takeover run (%v) finished before the failover timeout (%v)", res.TotalDelay, cfg.FailoverTimeout)
	}
}

func TestSimChurnDepartRemapsPlacement(t *testing.T) {
	cfg := churnSimConfig()
	cfg.Churn = simEvents(t, "depart:ipfs-01@iter0,crash:ipfs-02@iter0")
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedGradients != 0 {
		t.Fatalf("placement remap lost %d gradients", res.MissedGradients)
	}
	if res.TotalDelay <= 0 {
		t.Fatalf("implausible total delay %v", res.TotalDelay)
	}
}

func TestSimChurnValidation(t *testing.T) {
	cases := []struct {
		plan    string
		mutate  func(*SimConfig)
		wantErr string
	}{
		{plan: "crash:nobody@iter0", wantErr: "unknown participant"},
		{plan: "depart:trainer-00@iter0", wantErr: "do not depart"},
		{plan: "rejoin:ipfs-00@iter0", wantErr: "not modeled"},
		{plan: "depart:agg-p0-0@iter0", wantErr: "only crash"},
		{plan: "crash:ipfs-09@iter0", wantErr: "unknown storage node"},
		{plan: "crash:agg-p7-0@iter0", wantErr: "unknown aggregator"},
		{plan: "slow:ipfs-00@iter0:5ms", wantErr: "not a membership event"},
		{
			plan:    "depart:ipfs-00@iter0,depart:ipfs-01@iter0,depart:ipfs-02@iter0,depart:ipfs-03@iter0",
			wantErr: "every storage node is down",
		},
		{
			plan:    "crash:agg-p0-0@iter0,crash:agg-p0-1@iter0,crash:agg-p1-0@iter0,crash:agg-p1-1@iter0",
			wantErr: "no live aggregator",
		},
		{
			plan:    "rejoin:trainer-00@iter0",
			mutate:  func(c *SimConfig) { c.Direct = true; c.StorageNodes = 0 },
			wantErr: "storage network",
		},
	}
	for _, tc := range cases {
		cfg := churnSimConfig()
		if tc.mutate != nil {
			tc.mutate(&cfg)
		}
		cfg.Churn = simEvents(t, tc.plan)
		_, err := Simulate(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("plan %q: error %v, want substring %q", tc.plan, err, tc.wantErr)
		}
	}
}
