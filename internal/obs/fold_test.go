package obs

import (
	"testing"
	"time"
)

var foldTable = []FoldRule{
	{Span: "upload", Series: "phase_seconds", Labels: []string{"phase", "upload"}},
	{Span: "aggregate", Event: "published", Series: "latency_seconds"},
	{Event: "published", Series: "published_total"},
	{Event: "failover_put", Series: "failovers_total", Labels: []string{"op", "put"}},
	{Event: "failover_get", Series: "failovers_total", Labels: []string{"op", "get"}},
}

// TestMetricFoldCounts: span durations feed their histograms (an
// event-gated one only when the span carries the event), each event its
// own counter, events and spans outside the table nothing; every series
// is listed before any span arrives.
func TestMetricFoldCounts(t *testing.T) {
	reg := NewRegistry()
	f := NewMetricFold(reg, foldTable)
	if got := len(reg.Snapshot().Counters) + len(reg.Snapshot().Histograms); got != 5 {
		t.Fatalf("registered %d series up front, want 5", got)
	}
	at := time.Unix(0, 0)
	f.EmitSpan(Span{Name: "upload", Start: at, End: at.Add(2 * time.Second), Events: []SpanEvent{
		{Name: "failover_put", Detail: "ipfs-01: down"},
		{Name: "failover_get", Detail: "ipfs-02: down"},
		{Name: "failover_get"},
		{Name: "unlisted"},
	}})
	f.EmitSpan(Span{Name: "aggregate", Start: at, End: at.Add(time.Second)})
	f.EmitSpan(Span{Name: "aggregate", Start: at, End: at.Add(time.Second), Events: []SpanEvent{{Name: "published"}}})
	f.EmitSpan(Span{Name: "unlisted", Events: []SpanEvent{{Name: "unlisted"}}})

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"published_total":           1,
		`failovers_total{op="put"}`: 1,
		`failovers_total{op="get"}`: 2,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		`phase_seconds{phase="upload"}`: 2,
		"latency_seconds":               1,
	} {
		if h := snap.Histograms[name]; h.Count != 1 || h.Sum != want {
			t.Errorf("%s: %d samples summing to %v, want 1 summing to %v", name, h.Count, h.Sum, want)
		}
	}
}

// TestMetricFoldAllocationBudget: folding a span with two events
// allocates nothing.
func TestMetricFoldAllocationBudget(t *testing.T) {
	f := NewMetricFold(NewRegistry(), foldTable)
	at := time.Unix(0, 0)
	s := Span{Name: "aggregate", Start: at, End: at.Add(time.Second), Events: []SpanEvent{
		{Name: "published"},
		{Name: "failover_get", Detail: "ipfs-02: down"},
	}}
	if allocs := testing.AllocsPerRun(1000, func() { f.EmitSpan(s) }); allocs != 0 {
		t.Fatalf("EmitSpan allocates %v times per span", allocs)
	}
}
