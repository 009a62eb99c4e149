package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ipls/internal/directory"
	"ipls/internal/obs"
)

// sessionSeries flattens a snapshot into the Session's series: counter
// values and histogram sample counts by series name, leaving out the
// series named in other (those of the storage network sharing the
// registry).
func sessionSeries(snap obs.Snapshot, other map[string]bool) (map[string]int64, map[string]uint64) {
	counters := make(map[string]int64)
	for name, v := range snap.Counters {
		if !other[name] {
			counters[name] = v
		}
	}
	hists := make(map[string]uint64)
	for name, h := range snap.Histograms {
		if !other[name] {
			hists[name] = h.Count
		}
	}
	return counters, hists
}

// assertSeries fails unless got holds exactly the series of want, each
// with want's value.
func assertSeries[V comparable](t *testing.T, kind string, got, want map[string]V) {
	t.Helper()
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s %s = %v (present %v), want %v", kind, name, g, ok, w)
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected %s %s = %v", kind, name, g)
		}
	}
}

// TestIterationPopulatesMetrics is the end-to-end observability check: one
// simulated multi-node iteration must produce non-zero upload bytes,
// merge-and-download savings and aggregation-latency observations in a
// shared registry, and exactly the Session series pinned below.
func TestIterationPopulatesMetrics(t *testing.T) {
	sess, net, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.ProvidersPerAggregator = 1
	})
	reg := obs.NewRegistry()
	net.SetMetrics(reg)
	storageSeries := make(map[string]bool)
	before := reg.Snapshot()
	for name := range before.Counters {
		storageSeries[name] = true
	}
	for name := range before.Histograms {
		storageSeries[name] = true
	}
	sess.SetMetrics(reg)
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

	// One plain round, 4 trainers x 3 partitions, two aggregators per
	// partition with one provider each: every aggregator merges its
	// trainers' gradients in one request and examines (reads; plain mode
	// has no commitment to check) its peer's partial.
	counters, hists := sessionSeries(snap, storageSeries)
	assertSeries(t, "counter", counters, map[string]int64{
		"gradients_uploaded_total":        12,
		"updates_collected_total":         3,
		"merge_downloads_total":           6,
		"batch_verify_total":              0,
		"batch_verify_fail_total":         0,
		"verification_pass_total":         0,
		"verification_fail_total":         0,
		"takeover_total":                  0,
		"standby_takeover_total":          0,
		"screened_out_total":              0,
		"globals_published_total":         3,
		"globals_rejected_total":          0,
		"quorum_proceed_total":            0,
		"byzantine_rejects_total":         0,
		"byzantine_quarantines_total":     0,
		"expunge_failed_total":            0,
		`failovers_total{op="put"}`:       0,
		`failovers_total{op="get"}`:       0,
		`failovers_total{op="merge_get"}`: 0,
	})
	assertSeries(t, "histogram", hists, map[string]uint64{
		"aggregation_latency_seconds":             3,
		`phase_seconds{phase="trainer_upload"}`:   4,
		`phase_seconds{phase="trainer_collect"}`:  1,
		`phase_seconds{phase="gradient_collect"}`: 6,
		`phase_seconds{phase="merge_download"}`:   6,
		`phase_seconds{phase="verify"}`:           6,
		`phase_seconds{phase="publish"}`:          6,
	})

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

	// The cheater's partial fails its peer's check (1 fail, 5 passes over
	// the 6 partials examined), the peer takes over and the directory
	// refuses the cheater's global unless the honest peer's was final
	// first; one batch verify per aggregator and one for the takeover,
	// none of which fails.
	rejected := int64(0)
	for _, rep := range res.Reports {
		if rep.GlobalRejected {
			rejected++
		}
	}
	counters, hists := sessionSeries(reg.Snapshot(), nil)
	assertSeries(t, "counter", counters, map[string]int64{
		"gradients_uploaded_total":        12,
		"updates_collected_total":         3,
		"merge_downloads_total":           0,
		"batch_verify_total":              7,
		"batch_verify_fail_total":         0,
		"verification_pass_total":         5,
		"verification_fail_total":         1,
		"takeover_total":                  1,
		"standby_takeover_total":          0,
		"screened_out_total":              0,
		"globals_published_total":         3,
		"globals_rejected_total":          rejected,
		"quorum_proceed_total":            0,
		"byzantine_rejects_total":         0,
		"byzantine_quarantines_total":     0,
		"expunge_failed_total":            0,
		`failovers_total{op="put"}`:       0,
		`failovers_total{op="get"}`:       0,
		`failovers_total{op="merge_get"}`: 0,
	})
	assertSeries(t, "histogram", hists, map[string]uint64{
		"aggregation_latency_seconds":             3,
		`phase_seconds{phase="trainer_upload"}`:   4,
		`phase_seconds{phase="trainer_collect"}`:  1,
		`phase_seconds{phase="gradient_collect"}`: 6,
		`phase_seconds{phase="merge_download"}`:   0,
		`phase_seconds{phase="verify"}`:           6,
		`phase_seconds{phase="publish"}`:          6,
	})
}

// failingExpunger is a directory whose ExpungeGradient fails for a reason
// other than a missing record.
type failingExpunger struct{ *directory.Service }

func (failingExpunger) ExpungeGradient(context.Context, directory.Addr) error {
	return errors.New("expunge: directory unavailable")
}

// TestExpungeFailureIsCounted: a corrupt upload the directory cannot
// expunge is still rejected, and each failed expunge is one
// expunge_failed event and one expunge_failed_total.
func TestExpungeFailureIsCounted(t *testing.T) {
	base, net, dir := testStack(t, func(ts *TaskSpec) { ts.Verifiable = true })
	sess, err := NewSession(base.cfg, net, failingExpunger{dir})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	col := obs.NewSpanCollector(0)
	sess.SetSpans(col)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 102)
	if _, err := sess.runIteration(context.Background(), 0, deltas, RoundOptions{Corrupt: map[string]bool{"t1": true}}); err != nil {
		t.Fatal(err)
	}
	// t1's gradient in each of the 3 partitions is caught and stays.
	events, _ := spanEvents(col.Spans(), "expunge_failed")
	if len(events) != 3 {
		t.Fatalf("expunge_failed events = %d, want 3", len(events))
	}
	for name, want := range map[string]int64{"byzantine_rejects_total": 3, "expunge_failed_total": 3} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
