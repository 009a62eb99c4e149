package main

import (
	"math"
	"sort"
)

// metricSpec names one metric. BENCHMARK.json repeats the specs whose
// Contract flag is set; TestBenchmarkJSONMatchesSpecs keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before compare calls it a regression.
	Bound float64
	// Contract marks the metrics the driver's command line reports: those
	// that are a real, non-zero measurement on every workload.
	Contract bool
}

// endToEnd is what a user of the system sees, the same ten on every
// workload. failed_share is 0 on a healthy tree, so the driver reads it from
// the result's attempted/failed counts instead of a metric; agg_err_max
// depends on the seed, so it is compared only between runs of equal seed.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, true},
	{"round_ms_p50", "ms", "lower", 0.15, true},
	{"round_ms_p90", "ms", "lower", 0.20, true},
	{"rounds_per_s", "1/s", "higher", 0.15, true},
	{"cpu_s_per_round", "s", "lower", 0.15, true},
	{"allocs_per_round", "count", "lower", 0.02, true},
	{"alloc_mb_per_round", "MB", "lower", 0.02, true},
	{"rss_mb_p50", "MB", "lower", 0.10, true},
	{"failed_share", "share", "lower", 0, false},
	{"agg_err_max", "abs", "lower", 0, false},
}

// perLayer lists every per-layer metric in print order. The boundary rows
// are per-round medians over the traced rounds; an "_ms" row is the summed
// busy time of that call kind in a round and may exceed the round's wall
// time because roles run concurrently. The replay rows are medians of
// direct calls at the workload's own L, fan-in and curve. Rows that some
// workload cannot measure (no verification in plain mode, no transport
// in-process, accumulator getters the Session never calls) are reported as
// null there and stay out of BENCHMARK.json.
var perLayer = []metricSpec{
	// storage boundary
	{Name: "storage.put_calls", Unit: "count", Better: "lower", Contract: true},
	{Name: "storage.put_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "storage.put_bytes", Unit: "bytes", Better: "lower", Contract: true},
	{Name: "storage.get_calls", Unit: "count", Better: "lower", Contract: true},
	{Name: "storage.get_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "storage.get_bytes", Unit: "bytes", Better: "lower", Contract: true},
	{Name: "storage.merge_calls", Unit: "count", Better: "lower", Contract: true},
	{Name: "storage.merge_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "storage.merge_bytes", Unit: "bytes", Better: "lower", Contract: true},
	{Name: "storage.merge_fanin", Unit: "count", Better: "higher", Contract: true},
	{Name: "storage.pubsub_calls", Unit: "count", Better: "lower", Contract: true},
	{Name: "storage.pubsub_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "storage.failed_calls", Unit: "count", Better: "lower", Contract: true},
	// directory boundary
	{Name: "directory.publish_calls", Unit: "count", Better: "lower", Contract: true},
	{Name: "directory.publish_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "directory.poll_calls", Unit: "count", Better: "lower", Contract: true},
	{Name: "directory.poll_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "directory.poll_empty_share", Unit: "share", Better: "lower", Contract: true},
	{Name: "directory.verify_calls", Unit: "count", Better: "lower", Contract: true},
	{Name: "directory.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "directory.accum_calls", Unit: "count", Better: "lower"},
	{Name: "directory.accum_ms", Unit: "ms", Better: "lower"},
	{Name: "directory.failed_calls", Unit: "count", Better: "lower", Contract: true},
	// the round itself, seen from the harness
	{Name: "core.round_traced_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "core.boundary_union_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "core.self_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "core.cleanup_ms", Unit: "ms", Better: "lower", Contract: true},
	{Name: "core.trace_overhead_pct", Unit: "%", Better: "lower", Contract: true},
	{Name: "core.peak_rss_mb", Unit: "MB", Better: "lower", Contract: true},
	// layer replay
	{Name: "scalar.encode_vec_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "scalar.decode_vec_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "scalar.sum_vecs_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "model.quantize_encode_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "model.quantize_encode_allocs", Unit: "count", Better: "lower", Contract: true},
	{Name: "model.decode_dequantize_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "cid.sum_mbps", Unit: "MB/s", Better: "higher", Contract: true},
	{Name: "group.add_ns", Unit: "ns", Better: "lower"},
	{Name: "group.scalar_mult_us", Unit: "us", Better: "lower"},
	{Name: "group.scalar_mult_allocs", Unit: "count", Better: "lower"},
	{Name: "group.multiexp_us", Unit: "us", Better: "lower"},
	{Name: "pedersen.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "pedersen.commit_us", Unit: "us", Better: "lower"},
	{Name: "pedersen.commit_allocs", Unit: "count", Better: "lower"},
	{Name: "pedersen.verify_us", Unit: "us", Better: "lower"},
	{Name: "pedersen.batch_verify_us", Unit: "us", Better: "lower"},
	{Name: "pedersen.verify_loop_us", Unit: "us", Better: "lower"},
	{Name: "pedersen.combine_us", Unit: "us", Better: "lower"},
	{Name: "directory.publish_us", Unit: "us", Better: "lower"},
	{Name: "directory.verify_partial_us", Unit: "us", Better: "lower"},
	{Name: "storage.blockstore_put_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "storage.blockstore_get_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "storage.network_merge_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "transport.rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.put_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "transport.get_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "dag.build_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "dag.assemble_us", Unit: "us", Better: "lower", Contract: true},
	{Name: "obs.span_overhead_pct", Unit: "%", Better: "lower", Contract: true},
}

// metrics maps a metric name to its value; a name that is absent was not
// measurable on the workload and prints as null.
type metrics map[string]float64

// quantile returns the i-th of the n-quantiles of sorted values the way
// Python's statistics.quantiles (method "exclusive") does, which is the
// rule the driver applies to repeated runs; quantile(v, 1, 2) is the median.
func quantile(sorted []float64, i, n int) float64 {
	ld := len(sorted)
	switch ld {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (sorted[j-1]*(float64(n)-delta) + sorted[j]*delta) / float64(n)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 1, 2) }
