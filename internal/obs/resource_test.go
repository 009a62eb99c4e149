package obs

import (
	"strings"
	"testing"
	"time"
)

func TestResourceSampleSub(t *testing.T) {
	a := ResourceSample{CPUNanos: 100, AllocBytes: 1000}
	b := ResourceSample{CPUNanos: 150, AllocBytes: 1800}
	d := b.Sub(a)
	if d.CPUNanos != 50 || d.AllocBytes != 800 {
		t.Fatalf("Sub = %+v, want {50 800}", d)
	}
	// Counter resets clamp to zero instead of going negative.
	d = a.Sub(b)
	if d != (ResourceSample{}) {
		t.Fatalf("Sub after reset = %+v, want zeros", d)
	}
}

func TestRuntimeMeterMonotonicAlloc(t *testing.T) {
	m := RuntimeMeter{}
	sink := make([][]byte, 0, 8)
	before := m.Sample()
	// Objects over 32 KiB are large allocations, which runtime/metrics
	// counts when they are made; small ones are counted only when their
	// per-P cache is flushed, so a delta over them can come up short.
	for i := 0; i < 8; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	after := m.Sample()
	if after.AllocBytes < before.AllocBytes {
		t.Fatalf("alloc counter went backwards: %d -> %d", before.AllocBytes, after.AllocBytes)
	}
	if d := after.Sub(before); d.AllocBytes < 8*64<<10 {
		t.Fatalf("alloc delta %d bytes, want >= %d", d.AllocBytes, 8*64<<10)
	}
	_ = sink
	if after.CPUNanos < before.CPUNanos {
		t.Fatalf("cpu counter went backwards: %d -> %d", before.CPUNanos, after.CPUNanos)
	}
}

// TestBreakdownFoldsResources checks the critical-path fold carries span
// CPU/alloc deltas into the per-phase rows, counted once per span.
func TestBreakdownFoldsResources(t *testing.T) {
	t0 := time.Unix(0, 0)
	ctx := SpanContext{Session: "s", Iter: 1, SpanID: "root"}
	spans := []Span{
		{
			Name: "iteration", Context: ctx,
			Start: t0, End: t0.Add(100 * time.Millisecond),
			CPUNanos: 10_000, AllocBytes: 4096,
		},
		{
			Name: "commit", Context: SpanContext{Session: "s", Iter: 1, SpanID: "c1", Parent: "root"},
			Start: t0.Add(10 * time.Millisecond), End: t0.Add(60 * time.Millisecond),
			CPUNanos: 40_000, AllocBytes: 65536,
		},
	}
	b := Breakdown(spans)
	byPhase := map[string]PhaseDuration{}
	for _, p := range b.Phases {
		byPhase[p.Phase] = p
	}
	if got := byPhase["commit"]; got.CPUNanos != 40_000 || got.AllocBytes != 65536 {
		t.Fatalf("commit phase resources = %+v", got)
	}
	if got := byPhase["iteration"]; got.CPUNanos != 10_000 || got.AllocBytes != 4096 {
		t.Fatalf("iteration phase resources = %+v", got)
	}
	// And the budget fold exposes them as the cpu/alloc gate dimensions.
	sb := NewScenarioBudget([]IterationBreakdown{b})
	if got := sb.Phases["commit"]; got.CPU != 40_000*time.Nanosecond || got.Alloc != 65536 {
		t.Fatalf("commit budget = %+v", got)
	}
	if sb.Latency.CPU != 50_000*time.Nanosecond || sb.Latency.Alloc != 4096+65536 {
		t.Fatalf("latency budget = %+v", sb.Latency)
	}
	// A grown alloc in one phase trips the gate on that phase's alloc row.
	worse := sb
	worse.Phases = map[string]PhaseBudget{}
	for k, v := range sb.Phases {
		worse.Phases[k] = v
	}
	p := worse.Phases["commit"]
	p.Alloc *= 3
	worse.Phases["commit"] = p
	r := CompareBudget("bench", sb, worse, 0.5)
	if r.OK() {
		t.Fatal("tripled commit alloc must fail the gate")
	}
	found := false
	for _, v := range r.Violations() {
		if v == "" {
			continue
		}
		found = found || (strings.Contains(v, "commit") && strings.Contains(v, "alloc"))
	}
	if !found {
		t.Fatalf("violations do not name commit/alloc: %v", r.Violations())
	}
}
