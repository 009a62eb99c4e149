package core

import (
	"time"

	"ipls/internal/obs"
)

// sessionMetrics holds the session's pre-resolved instruments. The zero
// value is fully inert: every field is a nil obs instrument, which
// discards, so an uninstrumented session pays only a nil check per
// observation.
type sessionMetrics struct {
	// aggregationLatency is the per-iteration aggregation latency — from
	// an aggregator starting its run to its global update being accepted
	// (the paper's Fig. 1/2 delay axis).
	aggregationLatency *obs.Histogram

	// Phase timers around the protocol's hot path.
	phaseUpload    *obs.Histogram // trainer gradient upload (Algorithm 1, 3-9)
	phaseCollect   *obs.Histogram // trainer global-update collection
	phaseGradients *obs.Histogram // aggregator gradient collection (28-34)
	phaseMerge     *obs.Histogram // one merge-and-download request (§III-E)
	phaseVerify    *obs.Histogram // one partial-update verification (§IV-B)
	phasePublish   *obs.Histogram // global-update upload + directory publish

	gradientsUploaded *obs.Counter
	updatesCollected  *obs.Counter
	mergeDownloads    *obs.Counter
	batchVerifies     *obs.Counter // one RLC check covering a whole partition's merges
	batchVerifyFail   *obs.Counter // batches that failed and fell back to per-group Verify
	verifyPass        *obs.Counter
	verifyFail        *obs.Counter
	takeovers         *obs.Counter
	standbyTakeovers  *obs.Counter
	screenedOut       *obs.Counter
	globalsPublished  *obs.Counter
	globalsRejected   *obs.Counter

	// Graceful-degradation paths (scenario engine).
	quorumProceeds       *obs.Counter // rounds closed at m-of-n after the quorum wait
	byzantineRejects     *obs.Counter // gradients rejected for commitment mismatch
	byzantineQuarantines *obs.Counter // trainers quarantined after repeated offenses

	// Recovery paths, one failovers_total{op} series per fallback.
	failoverPut   *obs.Counter // a block landed on another node than the preferred one
	failoverGet   *obs.Counter // a block was read by content after its holder failed
	failoverMerge *obs.Counter // a failed merge-and-download was read record by record
}

// SetMetrics points the session's instrumentation at a registry (nil
// detaches). Like SetSpans, call it before the session is used
// concurrently.
func (s *Session) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		s.metrics = sessionMetrics{}
		return
	}
	phase := func(name string) *obs.Histogram {
		return reg.Histogram("phase_seconds", obs.DefBuckets, "phase", name)
	}
	s.metrics = sessionMetrics{
		aggregationLatency: reg.Histogram("aggregation_latency_seconds", obs.DefBuckets),
		phaseUpload:        phase("trainer_upload"),
		phaseCollect:       phase("trainer_collect"),
		phaseGradients:     phase("gradient_collect"),
		phaseMerge:         phase("merge_download"),
		phaseVerify:        phase("verify"),
		phasePublish:       phase("publish"),
		gradientsUploaded:  reg.Counter("gradients_uploaded_total"),
		updatesCollected:   reg.Counter("updates_collected_total"),
		mergeDownloads:     reg.Counter("merge_downloads_total"),
		batchVerifies:      reg.Counter("batch_verify_total"),
		batchVerifyFail:    reg.Counter("batch_verify_fail_total"),
		verifyPass:         reg.Counter("verification_pass_total"),
		verifyFail:         reg.Counter("verification_fail_total"),
		takeovers:          reg.Counter("takeover_total"),
		standbyTakeovers:   reg.Counter("standby_takeover_total"),
		screenedOut:        reg.Counter("screened_out_total"),
		globalsPublished:   reg.Counter("globals_published_total"),
		globalsRejected:    reg.Counter("globals_rejected_total"),

		quorumProceeds:       reg.Counter("quorum_proceed_total"),
		byzantineRejects:     reg.Counter("byzantine_rejects_total"),
		byzantineQuarantines: reg.Counter("byzantine_quarantines_total"),

		failoverPut:   reg.Counter("failovers_total", "op", "put"),
		failoverGet:   reg.Counter("failovers_total", "op", "get"),
		failoverMerge: reg.Counter("failovers_total", "op", "merge_get"),
	}
}

// observeSince records the elapsed seconds since start on a histogram.
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
