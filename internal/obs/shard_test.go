package obs

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.limit = 3

	a := r.Counter("a_total")
	b := r.Gauge("b")
	c := r.Histogram("c_seconds", nil)
	if a == nil || b == nil || c == nil {
		t.Fatalf("instruments under the limit must be real")
	}
	if got := r.size.Load(); got != 3 {
		t.Fatalf("size = %d, want 3", got)
	}

	// The fourth identity is refused as a nil (no-op) instrument.
	d := r.Counter("d_total")
	if d != nil {
		t.Fatalf("counter past the limit should be nil, got %v", d)
	}
	d.Inc() // must not panic
	if got := r.dropped.Load(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}

	// Existing identities are still handed out.
	if r.Counter("a_total") != a {
		t.Fatalf("existing identity must still resolve at the limit")
	}

	// Gauges and histograms are refused the same way.
	if g := r.Gauge("e"); g != nil {
		t.Fatalf("gauge past the limit should be nil")
	}
	if h := r.Histogram("f_seconds", nil); h != nil {
		t.Fatalf("histogram past the limit should be nil")
	}
	if got := r.dropped.Load(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}

	// The drop count surfaces in snapshots and Prometheus output.
	snap := r.Snapshot()
	if snap.Counters[DroppedMetricName] != 3 {
		t.Fatalf("snapshot dropped counter = %d, want 3", snap.Counters[DroppedMetricName])
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), DroppedMetricName+" 3") {
		t.Fatalf("WriteProm missing dropped counter:\n%s", sb.String())
	}

	// Raising the limit admits new identities again.
	r.limit = 10
	if r.Counter("d_total") == nil {
		t.Fatalf("counter should be admitted after the limit was raised")
	}
}

func TestRegistryCapExactUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	const limit = 64
	r.limit = limit
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Counter(fmt.Sprintf("w%d_m%d_total", g, i))
			}
		}(g)
	}
	wg.Wait()
	if got := r.size.Load(); got != limit {
		t.Fatalf("size = %d, want exactly %d", got, limit)
	}
	if got := r.dropped.Load(); got != 16*50-limit {
		t.Fatalf("dropped = %d, want %d", got, 16*50-limit)
	}
}

// mutexRegistry is the pre-sharding design (one RWMutex over one map),
// kept here as the benchmark baseline the lock-striped Registry is
// measured against.
type mutexRegistry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

func newMutexRegistry() *mutexRegistry {
	return &mutexRegistry{counters: make(map[string]*Counter)}
}

func (r *mutexRegistry) Counter(name string, labelPairs ...string) *Counter {
	key := name + fmtLabels(labelPairs)
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[key]; ok {
		return c
	}
	c = &Counter{name: name}
	r.counters[key] = c
	return c
}

// counterSource abstracts the registry under benchmark so both the
// sharded Registry and the single-mutex baseline run identical loops.
type counterSource interface {
	Counter(name string, labelPairs ...string) *Counter
}

// benchNames are the metric identities the writer benchmarks cycle
// through: 256 distinct per-node counters, precomputed so the measured
// op is the registry's own lookup+increment hot path rather than label
// formatting.
var benchNames = func() [256]string {
	var names [256]string
	for i := range names {
		names[i] = fmt.Sprintf("node%04d_bytes_total", i)
	}
	return names
}()

// benchLabels are the node label values for the realistic labeled
// variant, where every lookup also pays for canonical label formatting.
var benchLabels = func() [256]string {
	var vals [256]string
	for i := range vals {
		vals[i] = fmt.Sprintf("ipfs-%04d", i)
	}
	return vals
}()

// runWriters10k drives the lookup+increment hot path from ~10k
// concurrent writers (SetParallelism multiplies GOMAXPROCS). On
// GOMAXPROCS=1 both registries degenerate to the uncontended path and
// measure only constant overheads; the striping win (>4x against the
// single mutex) needs real parallelism to show up.
func runWriters10k(b *testing.B, src counterSource, labeled bool) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 1 {
		procs = 1
	}
	b.SetParallelism((10000 + procs - 1) / procs)
	b.RunParallel(func(pb *testing.PB) {
		id := 0
		for pb.Next() {
			i := id % len(benchNames)
			if labeled {
				src.Counter("bytes_uploaded_total", "node", benchLabels[i]).Inc()
			} else {
				src.Counter(benchNames[i]).Inc()
			}
			id++
		}
	})
}

// BenchmarkRegistryWriters10k compares the sharded registry against the
// pre-sharding single-mutex design at ~10k concurrent writers:
//
//	go test ./internal/obs -run xxx -bench 'RegistryWriters10k' -cpu 8
//
// The "hot" variant isolates lock behavior (precomputed keys); the
// "labeled" variant is the realistic call site that also formats a
// label block per lookup.
func BenchmarkRegistryWriters10k(b *testing.B) {
	b.Run("hot/sharded", func(b *testing.B) { runWriters10k(b, NewRegistry(), false) })
	b.Run("hot/single-mutex", func(b *testing.B) { runWriters10k(b, newMutexRegistry(), false) })
	b.Run("labeled/sharded", func(b *testing.B) { runWriters10k(b, NewRegistry(), true) })
	b.Run("labeled/single-mutex", func(b *testing.B) { runWriters10k(b, newMutexRegistry(), true) })
}

// BenchmarkRegistrySingleWriter guards the uncontended path: sharding
// must not slow down the one-goroutine case beyond the shard-hash cost.
func BenchmarkRegistrySingleWriter(b *testing.B) {
	run := func(b *testing.B, src counterSource) {
		for i := 0; i < b.N; i++ {
			src.Counter("bytes_uploaded_total", "node", benchLabels[i%len(benchLabels)]).Inc()
		}
	}
	b.Run("sharded", func(b *testing.B) { run(b, NewRegistry()) })
	b.Run("single-mutex", func(b *testing.B) { run(b, newMutexRegistry()) })
}
