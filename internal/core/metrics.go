package core

import "ipls/internal/obs"

// sessionFold is the one source of the Session's metrics: each series
// is a fold over the spans and span events the Session emits, so an
// occurrence is recorded once, as a span or an event, and counted here.
// TestEveryEventHasOneCounter (orphans_test.go) holds the table and the
// emit sites to each other.
var sessionFold = []obs.FoldRule{
	// Phase timers: the duration of each span so named.
	{Span: "upload", Series: "phase_seconds", Labels: []string{"phase", "trainer_upload"}},
	{Span: "collect", Series: "phase_seconds", Labels: []string{"phase", "trainer_collect"}},
	{Span: "fetch_gradients", Series: "phase_seconds", Labels: []string{"phase", "gradient_collect"}},
	{Span: "merge_download", Series: "phase_seconds", Labels: []string{"phase", "merge_download"}},
	{Span: "verify", Series: "phase_seconds", Labels: []string{"phase", "verify"}},
	{Span: "global_publish", Series: "phase_seconds", Labels: []string{"phase", "publish"}},
	// Aggregation latency (the paper's Fig. 1/2 delay axis): an
	// aggregator's run, from its start to its global update being accepted.
	{Span: "aggregate", Event: "global_published", Series: "aggregation_latency_seconds"},

	// Counters: one increment per event.
	{Event: "gradient_uploaded", Series: "gradients_uploaded_total"},
	{Event: "update_collected", Series: "updates_collected_total"},
	{Event: "merge_accepted", Series: "merge_downloads_total"},
	{Event: "batch_verify", Series: "batch_verify_total"},
	{Event: "batch_verify_fail", Series: "batch_verify_fail_total"},
	{Event: "verification_pass", Series: "verification_pass_total"},
	{Event: "verification_fail", Series: "verification_fail_total"},
	{Event: "global_published", Series: "globals_published_total"},
	{Event: "global_rejected", Series: "globals_rejected_total"},
	{Event: "screened_out", Series: "screened_out_total"},
	// Degradation paths (§III-D, §III-E, §IV-B).
	{Event: "peer_takeover", Series: "takeover_total"},
	{Event: "standby_takeover", Series: "standby_takeover_total"},
	{Event: "quorum_proceed", Series: "quorum_proceed_total"},
	{Event: "byzantine_reject", Series: "byzantine_rejects_total"},
	{Event: "byzantine_quarantine", Series: "byzantine_quarantines_total"},
	{Event: "expunge_failed", Series: "expunge_failed_total"},
	{Event: "failover_put", Series: "failovers_total", Labels: []string{"op", "put"}},
	{Event: "failover_get", Series: "failovers_total", Labels: []string{"op", "get"}},
	{Event: "failover_merge_get", Series: "failovers_total", Labels: []string{"op", "merge_get"}},
}

// SetMetrics folds the session's spans into a registry through
// sessionFold (nil detaches). With a registry attached the session
// builds its spans even without a SetSpans sink. Like SetSpans, call it
// before the session is used concurrently.
func (s *Session) SetMetrics(reg *obs.Registry) { s.fold = obs.NewMetricFold(reg, sessionFold) }
