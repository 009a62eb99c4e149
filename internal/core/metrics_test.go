package core

import (
	"context"
	"strings"
	"testing"

	"ipls/internal/obs"
)

// TestIterationPopulatesMetrics is the end-to-end observability check: one
// simulated multi-node iteration must produce non-zero upload bytes,
// merge-and-download savings and aggregation-latency observations in a
// shared registry.
func TestIterationPopulatesMetrics(t *testing.T) {
	sess, net, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.ProvidersPerAggregator = 1
	})
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	net.SetMetrics(reg)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 99)
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}

	var uploaded int64
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "bytes_uploaded_total") {
			uploaded += v
		}
	}
	if uploaded == 0 {
		t.Fatal("bytes_uploaded_total stayed zero across a full iteration")
	}
	if snap.Counters["merge_bytes_saved_total"] == 0 {
		t.Fatal("merge_bytes_saved_total stayed zero with merge-and-download on")
	}
	if got := snap.Counters["gradients_uploaded_total"]; got != 12 {
		t.Fatalf("gradients_uploaded_total = %d, want 12 (4 trainers x 3 partitions)", got)
	}
	if got := snap.Counters["globals_published_total"]; got != 3 {
		t.Fatalf("globals_published_total = %d, want 3", got)
	}
	if snap.Counters["merge_downloads_total"] == 0 {
		t.Fatal("merge_downloads_total stayed zero")
	}
	lat, ok := snap.Histograms["aggregation_latency_seconds"]
	if !ok || lat.Count == 0 {
		t.Fatalf("aggregation_latency_seconds empty: %+v", lat)
	}
	if lat.Count != 3 {
		t.Fatalf("aggregation latency observations = %d, want 3 (one per accepted global)", lat.Count)
	}
	phases, ok := snap.Histograms[`phase_seconds{phase="trainer_upload"}`]
	if !ok || phases.Count == 0 {
		t.Fatal("phase_seconds{trainer_upload} empty")
	}

	// The same registry must render as Prometheus text for /metrics.
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE aggregation_latency_seconds histogram",
		"aggregation_latency_seconds_count 3",
		"merge_bytes_saved_total",
		`bytes_uploaded_total{node="s0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

// TestSetMetricsNilDetaches makes sure a detached session runs clean.
func TestSetMetricsNilDetaches(t *testing.T) {
	sess, _, _ := testStack(t, nil)
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	sess.SetMetrics(nil)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 100)
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("gradients_uploaded_total").Value(); got != 0 {
		t.Fatalf("detached session still counted %d gradients", got)
	}
}

// TestVerificationCountersTrackOutcomes covers pass/fail counting in
// verifiable mode with a cheating aggregator.
func TestVerificationCountersTrackOutcomes(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.Verifiable = true
	})
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 101)
	evil := AggregatorID(0, 1)
	res, err := sess.RunIteration(context.Background(), 0, deltas,
		map[string]Behavior{evil: BehaviorAlterGradient})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected() {
		t.Fatal("not detected")
	}
	if reg.Counter("verification_fail_total").Value() == 0 {
		t.Fatal("verification_fail_total stayed zero despite a cheating aggregator")
	}
	if reg.Counter("verification_pass_total").Value() == 0 {
		t.Fatal("verification_pass_total stayed zero despite honest peers")
	}
	if reg.Counter("takeover_total").Value() == 0 {
		t.Fatal("takeover_total stayed zero despite a takeover")
	}
}
