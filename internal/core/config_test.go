package core

import (
	"fmt"
	"testing"
	"time"
)

func baseSpec() TaskSpec {
	trainers := make([]string, 8)
	for i := range trainers {
		trainers[i] = fmt.Sprintf("trainer-%d", i)
	}
	return TaskSpec{
		TaskID:                  "test-task",
		ModelDim:                40,
		Partitions:              4,
		Trainers:                trainers,
		AggregatorsPerPartition: 2,
		StorageNodes:            []string{"s0", "s1", "s2", "s3"},
		ProvidersPerAggregator:  2,
		TTrain:                  time.Second,
		TSync:                   time.Second,
		PollInterval:            time.Millisecond,
	}
}

func TestNewConfigExpandsAssignments(t *testing.T) {
	cfg, err := NewConfig(baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		aggs := cfg.Aggregators[p]
		if len(aggs) != 2 {
			t.Fatalf("partition %d has %d aggregators", p, len(aggs))
		}
		// T_ij must partition the trainer set: disjoint and covering.
		seen := make(map[string]bool)
		for _, agg := range aggs {
			for _, tr := range cfg.TrainersOf(p, agg) {
				if seen[tr] {
					t.Fatalf("trainer %s assigned twice for partition %d", tr, p)
				}
				seen[tr] = true
			}
		}
		if len(seen) != 8 {
			t.Fatalf("partition %d covers %d trainers, want 8", p, len(seen))
		}
	}
}

func TestNewConfigProviders(t *testing.T) {
	cfg, err := NewConfig(baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.MergeAndDownload {
		t.Fatal("providers configured but merge-and-download disabled")
	}
	for _, ref := range cfg.AllAggregators() {
		provs := cfg.Providers[ref.ID]
		if len(provs) != 2 {
			t.Fatalf("aggregator %s has %d providers", ref.ID, len(provs))
		}
	}
	// Trainers must upload to one of their aggregator's providers.
	for p := 0; p < cfg.Spec.Partitions; p++ {
		for _, tr := range cfg.Trainers {
			node := cfg.UploadNode(p, tr)
			agg := cfg.Assignment[p][tr]
			found := false
			for _, prov := range cfg.Providers[agg] {
				if prov == node {
					found = true
				}
			}
			if !found {
				t.Fatalf("trainer %s uploads partition %d to %s, not a provider of %s",
					tr, p, node, agg)
			}
		}
	}
}

func TestNewConfigNoProviders(t *testing.T) {
	ts := baseSpec()
	ts.ProvidersPerAggregator = 0
	cfg, err := NewConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MergeAndDownload {
		t.Fatal("merge-and-download should be disabled without providers")
	}
	node := cfg.UploadNode(0, "trainer-0")
	found := false
	for _, s := range cfg.StorageNodes {
		if s == node {
			found = true
		}
	}
	if !found {
		t.Fatalf("upload node %s not a storage node", node)
	}
}

func TestNewConfigValidation(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*TaskSpec)
	}{
		{"empty task id", func(ts *TaskSpec) { ts.TaskID = "" }},
		{"zero dim", func(ts *TaskSpec) { ts.ModelDim = 0 }},
		{"zero partitions", func(ts *TaskSpec) { ts.Partitions = 0 }},
		{"no trainers", func(ts *TaskSpec) { ts.Trainers = nil }},
		{"dup trainers", func(ts *TaskSpec) { ts.Trainers = []string{"a", "a"} }},
		{"empty trainer id", func(ts *TaskSpec) { ts.Trainers = []string{""} }},
		{"zero aggregators", func(ts *TaskSpec) { ts.AggregatorsPerPartition = 0 }},
		{"too many aggregators", func(ts *TaskSpec) { ts.AggregatorsPerPartition = 100 }},
		{"no storage", func(ts *TaskSpec) { ts.StorageNodes = nil }},
		{"too many providers", func(ts *TaskSpec) { ts.ProvidersPerAggregator = 100 }},
		{"bad curve", func(ts *TaskSpec) { ts.Curve = "curve9000" }},
	}
	for _, tt := range mutations {
		ts := baseSpec()
		tt.mut(&ts)
		if _, err := NewConfig(ts); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestNewConfigDefaults(t *testing.T) {
	ts := baseSpec()
	ts.TTrain, ts.TSync, ts.PollInterval = 0, 0, 0
	ts.Curve = ""
	cfg, err := NewConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TTrain == 0 || cfg.TSync == 0 || cfg.PollInterval == 0 {
		t.Fatal("defaults not applied")
	}
	if cfg.Curve.Name != "secp256r1-fast" {
		t.Fatalf("default curve = %s", cfg.Curve.Name)
	}
	if cfg.QuantShift == 0 {
		t.Fatal("default shift not applied")
	}
}

func TestAggregatorID(t *testing.T) {
	if AggregatorID(2, 1) != "agg-p2-1" {
		t.Fatalf("AggregatorID = %s", AggregatorID(2, 1))
	}
}

func TestUploadNodeDeterministic(t *testing.T) {
	cfg, err := NewConfig(baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.Spec.Partitions; p++ {
		for _, tr := range cfg.Trainers {
			if cfg.UploadNode(p, tr) != cfg.UploadNode(p, tr) {
				t.Fatal("upload node not deterministic")
			}
		}
	}
	if cfg.AggregatorHome("agg-p0-0") == "" {
		t.Fatal("aggregator home empty")
	}
}

func TestBehaviorString(t *testing.T) {
	for b, want := range map[Behavior]string{
		BehaviorHonest:        "honest",
		BehaviorDropGradient:  "drop-gradient",
		BehaviorAlterGradient: "alter-gradient",
		BehaviorForgeUpdate:   "forge-update",
		BehaviorDropout:       "dropout",
		Behavior(42):          "behavior(42)",
	} {
		if b.String() != want {
			t.Errorf("Behavior(%d).String() = %q, want %q", int(b), b.String(), want)
		}
	}
}
