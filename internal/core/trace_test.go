package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"ipls/internal/obs"
)

// spansNamed filters spans by name.
func spansNamed(spans []obs.Span, name string) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// spanEvents lists the events of the given name across spans, with the
// span each sits on.
func spanEvents(spans []obs.Span, name string) (events []obs.SpanEvent, on []obs.Span) {
	for _, s := range spans {
		for _, e := range s.Events {
			if e.Name == name {
				events = append(events, e)
				on = append(on, s)
			}
		}
	}
	return events, on
}

func TestTracerRecordsHonestIteration(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.ProvidersPerAggregator = 1
		ts.Verifiable = true
	})
	col := obs.NewSpanCollector(0)
	sess.SetSpans(col)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 95)
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}
	spans := col.Spans()
	// 4 trainers x 3 partitions gradients, each stored with its size.
	puts := spansNamed(spans, "store_put")
	if len(puts) != 12 {
		t.Fatalf("store_put spans = %d, want 12", len(puts))
	}
	for _, p := range puts {
		if p.Bytes <= 0 {
			t.Fatalf("store_put without payload size: %+v", p)
		}
	}
	// 6 aggregators (3 partitions x 2) each wait once, publish a partial
	// and accept their peer's.
	if got := len(spansNamed(spans, "gradient_wait")); got != 6 {
		t.Fatalf("gradient_wait spans = %d, want 6", got)
	}
	if got := len(spansNamed(spans, "partial_publish")); got != 6 {
		t.Fatalf("partial_publish spans = %d, want 6", got)
	}
	for _, v := range spansNamed(spans, "verify") {
		if v.Attrs["verdict"] != "accepted" {
			t.Fatalf("honest partial not accepted: %+v", v)
		}
	}
	// Exactly one accepted global per partition; none rejected.
	outcomes := map[string]int{}
	for _, g := range spansNamed(spans, "global_publish") {
		outcomes[g.Attrs["outcome"]]++
	}
	if outcomes["accepted"] != 3 || outcomes["rejected"] != 0 {
		t.Fatalf("global_publish outcomes = %v, want 3 accepted", outcomes)
	}
	// The result collection downloads 3 updates.
	if got := len(spansNamed(spans, "download")); got != 3 {
		t.Fatalf("download spans = %d, want 3", got)
	}
	for _, s := range spans {
		if len(s.Events) != 0 {
			t.Fatalf("honest round annotated %s with %+v", s.Name, s.Events)
		}
	}
}

func TestTracerRecordsDetectionAndTakeover(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.Verifiable = true
		ts.TSync = time.Second
	})
	col := obs.NewSpanCollector(0)
	sess.SetSpans(col)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 96)
	honest, evil := AggregatorID(0, 0), AggregatorID(0, 1)
	res, err := sess.RunIteration(context.Background(), 0, deltas,
		map[string]Behavior{evil: BehaviorAlterGradient})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected() {
		t.Fatal("not detected")
	}
	spans := col.Spans()
	rejected := false
	for _, v := range spansNamed(spans, "verify") {
		if v.Attrs["peer"] == evil && v.Attrs["verdict"] == "rejected" && v.Actor == honest {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("no verify span rejecting the cheater's partial")
	}
	// The takeover is attributed to the honest peer redoing the evil
	// aggregator's work, in the iteration's trace, with timestamps.
	takeovers := spansNamed(spans, "takeover")
	if len(takeovers) == 0 {
		t.Fatal("no takeover span recorded")
	}
	for _, to := range takeovers {
		if to.Actor == evil {
			t.Fatalf("takeover attributed to the malicious aggregator: %+v", to)
		}
		if to.Attrs["peer"] != evil {
			t.Fatalf("takeover does not name the replaced peer: %+v", to)
		}
		if to.Context.Iter != 0 || to.Start.IsZero() || to.End.Before(to.Start) {
			t.Fatalf("takeover span misaddressed or unstamped: %+v", to)
		}
	}
	accepted := false
	for _, g := range spansNamed(spans, "global_publish") {
		if g.Actor == honest && g.Attrs["outcome"] == "accepted" {
			accepted = true
		}
	}
	if !accepted {
		t.Fatal("honest aggregator's global_publish outcome not accepted")
	}
}

func TestTracerRecordsScreenedOut(t *testing.T) {
	// Screening is incompatible with verifiable mode, so this exercises the
	// non-verifiable path.
	sess, _, _ := testStack(t, func(ts *TaskSpec) { ts.ScreenNorm = 100 })
	col := obs.NewSpanCollector(0)
	sess.SetSpans(col)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 97)
	for i := range deltas["t3"] {
		deltas["t3"][i] = 1e6 // way past the norm bound
	}
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}
	events, on := spanEvents(col.Spans(), "screened_out")
	if len(events) == 0 {
		t.Fatal("no screened_out event recorded")
	}
	for i, e := range events {
		if e.Detail != "t3" || on[i].Name != "fetch_gradients" {
			t.Fatalf("screened_out %+v on %s, want t3 on fetch_gradients", e, on[i].Name)
		}
		if e.Time.Before(on[i].Start) || e.Time.After(on[i].End) {
			t.Fatalf("screened_out at %v outside its span [%v, %v]", e.Time, on[i].Start, on[i].End)
		}
	}
}

// TestJSONLRoundTrip writes a live run's spans through the JSONL writer
// and reads them back: span events survive, and spans without events
// serialise without an events key.
func TestJSONLRoundTrip(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) { ts.ScreenNorm = 100 })
	var buf bytes.Buffer
	w := obs.NewSpanJSONLWriter(&buf)
	sess.SetSpans(w)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 98)
	for i := range deltas["t3"] {
		deltas["t3"][i] = 1e6
	}
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	withEvents := 0
	for _, l := range lines {
		if strings.Contains(l, `"events"`) {
			withEvents++
		}
	}
	spans, err := obs.ReadSpanJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	events, on := spanEvents(spans, "screened_out")
	if len(events) == 0 || withEvents != len(on) {
		t.Fatalf("%d lines carry events, %d screened_out events read back", withEvents, len(events))
	}
	if events[0].Detail != "t3" || events[0].Time.IsZero() {
		t.Fatalf("event mangled in the round trip: %+v", events[0])
	}
}
