package obs

import (
	"runtime/metrics"
)

// Resource attribution: CPU-time and allocation deltas sampled at span
// boundaries, so the span pipeline can say not only how long a phase
// took but where the compute and memory churn went. The paper's dominant
// cost is commitment computation (Fig. 3, linear in model size); wall
// clock alone cannot distinguish "waiting on the network" from "burning
// CPU in multiexp", and the ROADMAP's crypto-hot-path and scale work
// needs that attribution before it can shard or parallelize anything.
//
// Go exposes no public per-goroutine CPU or allocation counters, so
// RuntimeMeter reads process-wide totals: the delta over a span is an
// upper bound on the span's own use, and exact when the phase is the
// only thing running (single-threaded benchmarks, the commitment bench).
// Deterministic simulations instead charge modeled costs (see
// netsim.ModelCost), which keeps committed budget baselines exact.

// ResourceSample is a point-in-time reading of cumulative resource
// counters. Samples themselves are meaningless; subtract two to get the
// cost of the interval between them.
type ResourceSample struct {
	// CPUNanos is cumulative CPU time (user+system) in nanoseconds.
	CPUNanos int64 `json:"cpu_ns"`
	// AllocBytes is cumulative heap allocation in bytes.
	AllocBytes int64 `json:"alloc_bytes"`
}

// Sub returns the interval cost from earlier sample old to s, clamping
// negative deltas (counter resets, cross-process confusion) to zero.
func (s ResourceSample) Sub(old ResourceSample) ResourceSample {
	d := ResourceSample{CPUNanos: s.CPUNanos - old.CPUNanos, AllocBytes: s.AllocBytes - old.AllocBytes}
	if d.CPUNanos < 0 {
		d.CPUNanos = 0
	}
	if d.AllocBytes < 0 {
		d.AllocBytes = 0
	}
	return d
}

// ResourceMeter samples cumulative resource counters. Implementations
// must be safe for concurrent use; Sample is called on span open and
// close, so it must be cheap (no stop-the-world).
type ResourceMeter interface {
	Sample() ResourceSample
}

// allocSample reads cumulative heap allocation via runtime/metrics —
// unlike runtime.ReadMemStats this does not stop the world, so it is
// safe on span hot paths.
var allocSample = func() func() int64 {
	const name = "/gc/heap/allocs:bytes"
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindBad {
		return func() int64 { return 0 }
	}
	return func() int64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
}()

// RuntimeMeter meters the running process: CPU time from the OS rusage
// counters (zero on platforms without them) and allocation from the Go
// runtime. Process-wide, so span deltas are upper bounds under
// concurrency and exact for single-threaded phases.
type RuntimeMeter struct{}

var _ ResourceMeter = RuntimeMeter{}

// Sample reads the process counters.
func (RuntimeMeter) Sample() ResourceSample {
	return ResourceSample{CPUNanos: processCPUNanos(), AllocBytes: allocSample()}
}
