package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bytes_uploaded_total", "node", "s0")
	c.Add(10)
	c.Inc()
	if got := c.Value(); got != 11 {
		t.Fatalf("counter = %d, want 11", got)
	}
	if r.Counter("bytes_uploaded_total", "node", "s0") != c {
		t.Fatal("same identity must return the same counter")
	}
	if r.Counter("bytes_uploaded_total", "node", "s1") == c {
		t.Fatal("different labels must return a different counter")
	}
	c.Add(-5) // negative deltas ignored: counters are monotonic
	if got := c.Value(); got != 11 {
		t.Fatalf("counter after negative add = %d, want 11", got)
	}

	g := r.Gauge("active_flows")
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must stay zero")
	}
	g := r.Gauge("y")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay zero")
	}
	r.Histogram("z", nil).Observe(1)
	if err := r.WriteProm(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["latency_seconds"]
	// 0.05 and 0.1 land in le=0.1 (bounds are inclusive), 0.5 in le=1,
	// 5 in le=10, 100 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, n := range want {
		if snap.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], n, snap.Counts)
		}
	}
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if math.Abs(snap.Sum-105.65) > 1e-9 {
		t.Fatalf("sum = %v, want 105.65", snap.Sum)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("bytes_uploaded_total", "node", "s1").Add(7)
	r.Counter("bytes_uploaded_total", "node", "s0").Add(3)
	r.Gauge("blocks_stored").Set(2)
	h := r.Histogram("agg_seconds", []float64{1, 5})
	h.Observe(0.5)
	h.Observe(7)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bytes_uploaded_total counter",
		`bytes_uploaded_total{node="s0"} 3`,
		`bytes_uploaded_total{node="s1"} 7`,
		"# TYPE blocks_stored gauge",
		"blocks_stored 2",
		"# TYPE agg_seconds histogram",
		`agg_seconds_bucket{le="1"} 1`,
		`agg_seconds_bucket{le="5"} 1`,
		`agg_seconds_bucket{le="+Inf"} 2`,
		"agg_seconds_sum 7.5",
		"agg_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The TYPE line for a family with several label sets appears once.
	if strings.Count(out, "# TYPE bytes_uploaded_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "b", "2", "a", "1")
	b := r.Counter("m", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order must not create distinct instruments")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", nil).Observe(float64(j) / 100)
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 999 {
		t.Fatalf("gauge = %v, want 999", got)
	}
	if got := r.Snapshot().Histograms["h"].Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
