package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipls/internal/core"
	"ipls/internal/obs"
)

func TestParseBehavior(t *testing.T) {
	cases := map[string]core.Behavior{
		"drop-gradient":  core.BehaviorDropGradient,
		"alter-gradient": core.BehaviorAlterGradient,
		"forge-update":   core.BehaviorForgeUpdate,
		"dropout":        core.BehaviorDropout,
	}
	for s, want := range cases {
		got, err := parseBehavior(s)
		if err != nil || got != want {
			t.Errorf("parseBehavior(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseBehavior("nonsense"); err == nil {
		t.Fatal("expected error for unknown behavior")
	}
}

func TestRunSmallHonestJob(t *testing.T) {
	err := run([]string{
		"-trainers", "4", "-partitions", "2", "-aggregators", "1",
		"-storage-nodes", "2", "-providers", "1", "-rounds", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunVerifiableMaliciousJob(t *testing.T) {
	err := run([]string{
		"-trainers", "4", "-partitions", "2", "-aggregators", "2",
		"-storage-nodes", "2", "-providers", "0", "-rounds", "1",
		"-verifiable", "-malicious", "alter-gradient", "-model", "mlp",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-model", "transformer"}); err == nil {
		t.Fatal("expected unknown-model error")
	}
	if err := run([]string{"-malicious", "nonsense", "-rounds", "1"}); err == nil {
		t.Fatal("expected unknown-behavior error")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Fatal("expected flag parse error")
	}
	// The legacy plan flags are gone: -scenario is the only grammar.
	for _, flag := range []string{"-faults", "-churn"} {
		if err := run([]string{flag, "crash:ipfs-01@iter1"}); err == nil {
			t.Fatalf("%s still accepted", flag)
		}
	}
	// So are the event-stream flags: -span-out plus iplstrace replace them.
	for _, args := range [][]string{{"-trace"}, {"-summary"}, {"-trace-out", "x.jsonl"}} {
		if err := run(args); err == nil {
			t.Fatalf("%s still accepted", args[0])
		}
	}
}

// TestRunExportsTraceAndMetrics drives a simulated multi-node run and
// checks the exported artifacts: the JSONL span trace must parse back and
// show every iteration's gradient uploads with their bytes, and the
// metrics snapshot must show non-zero upload bytes, merge savings and
// aggregation-latency samples.
func TestRunExportsTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	spanPath := filepath.Join(dir, "run.spans")
	metricsPath := filepath.Join(dir, "metrics.json")
	err := run([]string{
		"-trainers", "4", "-partitions", "2", "-aggregators", "2",
		"-storage-nodes", "3", "-providers", "1", "-rounds", "2",
		"-span-out", spanPath, "-metrics-out", metricsPath,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpanJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	// 4 trainers x 2 partitions gradient puts per iteration.
	puts := map[int]int{}
	for _, s := range spans {
		if s.Name == "store_put" && s.Bytes > 0 {
			puts[s.Context.Iter]++
		}
	}
	if len(puts) != 2 || puts[0] != 8 || puts[1] != 8 {
		t.Fatalf("store_put spans per iteration = %v, want 8 in each of 2", puts)
	}

	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var uploaded int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "bytes_uploaded_total") {
			uploaded += v
		}
	}
	if uploaded == 0 {
		t.Fatal("snapshot has zero bytes_uploaded_total")
	}
	if snap.Counters["merge_bytes_saved_total"] == 0 {
		t.Fatal("snapshot has zero merge_bytes_saved_total")
	}
	lat, ok := snap.Histograms["aggregation_latency_seconds"]
	if !ok || lat.Count == 0 {
		t.Fatal("snapshot missing aggregation latency observations")
	}
}

// TestRunExportsSpans is the acceptance path for causal tracing: a
// multi-node, multi-iteration run with -span-out yields a span file whose
// per-iteration critical-path phases sum exactly to the end-to-end
// latency, with the cross-role causality (aggregate → upload links,
// merge under merge_download) intact.
func TestRunExportsSpans(t *testing.T) {
	dir := t.TempDir()
	spanPath := filepath.Join(dir, "run.spans")
	err := run([]string{
		"-trainers", "4", "-partitions", "2", "-aggregators", "2",
		"-storage-nodes", "3", "-providers", "1", "-rounds", "3",
		"-span-out", spanPath,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpanJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans exported")
	}

	breakdowns := obs.BreakdownTrace(spans)
	if len(breakdowns) != 3 {
		t.Fatalf("breakdowns cover %d iterations, want 3", len(breakdowns))
	}
	for _, b := range breakdowns {
		if b.Latency <= 0 {
			t.Fatalf("iter %d latency %v", b.Iter, b.Latency)
		}
		var sum time.Duration
		for _, p := range b.Phases {
			sum += p.Duration
		}
		if sum != b.Latency {
			t.Fatalf("iter %d phases sum to %v, latency %v", b.Iter, sum, b.Latency)
		}
	}

	for iter := 0; iter < 3; iter++ {
		tree := obs.BuildTree(spans, "iplssim", iter)
		if tree.Orphans != 0 {
			t.Fatalf("iter %d: %d orphaned spans", iter, tree.Orphans)
		}
		first := map[string]*obs.SpanNode{} // first node of each name, pre-order
		tree.Walk(func(n *obs.SpanNode, _ int) {
			if first[n.Span.Name] == nil {
				first[n.Span.Name] = n
			}
		})
		agg := first["aggregate"]
		if agg == nil || len(agg.Span.Links) == 0 {
			t.Fatalf("iter %d aggregate has no causal links to uploads", iter)
		}
		md := first["merge_download"]
		if md == nil || len(md.Children) == 0 || md.Children[0].Span.Name != "merge" {
			t.Fatalf("iter %d merge span not under merge_download", iter)
		}
	}
}

func TestRunNonIIDSplit(t *testing.T) {
	err := run([]string{
		"-trainers", "4", "-partitions", "2", "-aggregators", "1",
		"-storage-nodes", "2", "-rounds", "1", "-split", "non-iid",
	})
	if err != nil {
		t.Fatal(err)
	}
}
