package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// mkSpan builds a test span in trace (session, iter) with explicit IDs and
// a start/end offset in milliseconds from a fixed base.
func mkSpan(session string, iter int, id, parent, name string, startMS, endMS int64) Span {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return Span{
		Name: name,
		Context: SpanContext{
			Session: session, Iter: iter, SpanID: id, Parent: parent,
		},
		Start: base.Add(time.Duration(startMS) * time.Millisecond),
		End:   base.Add(time.Duration(endMS) * time.Millisecond),
	}
}

func TestNewSpanIDUnique(t *testing.T) {
	const n = 10000
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id := NewSpanID()
		if len(id) != 16 {
			t.Fatalf("span ID %q: want 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %q after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestSpanContextValidAndChild(t *testing.T) {
	var zero SpanContext
	if zero.Valid() {
		t.Fatal("zero context must be invalid")
	}
	root := SpanContext{Session: "s", Iter: 3, SpanID: NewSpanID()}
	child := root.Child()
	if !child.Valid() {
		t.Fatal("child context invalid")
	}
	if child.Session != "s" || child.Iter != 3 {
		t.Fatalf("child not in parent trace: %+v", child)
	}
	if child.Parent != root.SpanID {
		t.Fatalf("child.Parent = %q, want %q", child.Parent, root.SpanID)
	}
	if child.SpanID == root.SpanID {
		t.Fatal("child reused parent span ID")
	}
}

func TestSpanDurationNegativeClamped(t *testing.T) {
	s := mkSpan("s", 0, "a", "", "x", 10, 5)
	if d := s.Duration(); d != 0 {
		t.Fatalf("inverted span duration = %v, want 0", d)
	}
}

func TestSpanCollectorBounded(t *testing.T) {
	c := NewSpanCollector(3)
	for i := 0; i < 5; i++ {
		c.EmitSpan(mkSpan("s", 0, fmt.Sprintf("id-%d", i), "", "x", int64(i), int64(i+1)))
	}
	spans := c.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	// Oldest-first eviction keeps the newest three, in emission order.
	for i, want := range []string{"id-2", "id-3", "id-4"} {
		if spans[i].Context.SpanID != want {
			t.Fatalf("spans[%d] = %q, want %q", i, spans[i].Context.SpanID, want)
		}
	}
}

func TestSpanCollectorConcurrent(t *testing.T) {
	c := NewSpanCollector(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.EmitSpan(mkSpan("s", 0, fmt.Sprintf("g%d-%d", g, i), "", "x", 0, 1))
			}
		}(g)
	}
	wg.Wait()
	if got := len(c.Spans()); got != 64 {
		t.Fatalf("retained %d spans, want the capacity 64", got)
	}
}

func TestMultiSpanSinkFanOut(t *testing.T) {
	a, b := NewSpanCollector(0), NewSpanCollector(0)
	m := MultiSpanSink{a, nil, b}
	m.EmitSpan(mkSpan("s", 0, "x", "", "x", 0, 1))
	if len(a.Spans()) != 1 || len(b.Spans()) != 1 {
		t.Fatalf("fan-out: a=%d b=%d, want 1 each", len(a.Spans()), len(b.Spans()))
	}
}

func TestBuildTree(t *testing.T) {
	spans := []Span{
		mkSpan("s", 0, "root", "", "iteration", 0, 100),
		mkSpan("s", 0, "up", "root", "upload", 5, 30),
		mkSpan("s", 0, "agg", "root", "aggregate", 20, 90),
		mkSpan("s", 0, "md", "agg", "merge_download", 30, 50),
		// Different iteration: must be filtered out.
		mkSpan("s", 1, "other", "", "iteration", 0, 100),
		// Parent not retained: promoted to root and counted as orphan.
		mkSpan("s", 0, "lost", "gone", "merge", 40, 45),
	}
	tree := BuildTree(spans, "s", 0)
	if tree.Size() != 5 {
		t.Fatalf("tree size = %d, want 5", tree.Size())
	}
	if tree.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", tree.Orphans)
	}
	if len(tree.Roots) != 2 {
		t.Fatalf("roots = %d, want 2 (iteration + orphan)", len(tree.Roots))
	}
	first := map[string]*SpanNode{} // first node of each name, pre-order
	tree.Walk(func(n *SpanNode, _ int) {
		if first[n.Span.Name] == nil {
			first[n.Span.Name] = n
		}
	})
	it := first["iteration"]
	if it == nil || len(it.Children) != 2 {
		t.Fatalf("iteration node missing or wrong children: %+v", it)
	}
	// Children sorted by start time: upload (5) before aggregate (20).
	if it.Children[0].Span.Name != "upload" || it.Children[1].Span.Name != "aggregate" {
		t.Fatalf("child order: %q, %q", it.Children[0].Span.Name, it.Children[1].Span.Name)
	}
	if md := first["merge_download"]; md == nil {
		t.Fatal("merge_download not found under aggregate")
	}
	// Walk visits every node exactly once, roots at depth 0.
	depths := map[string]int{}
	tree.Walk(func(n *SpanNode, depth int) { depths[n.Span.Context.SpanID] = depth })
	if depths["root"] != 0 || depths["up"] != 1 || depths["md"] != 2 || depths["lost"] != 0 {
		t.Fatalf("walk depths: %v", depths)
	}
}

func TestBuildTreeSelfParent(t *testing.T) {
	// A span claiming itself as parent must not recurse or vanish.
	tree := BuildTree([]Span{mkSpan("s", 0, "a", "a", "x", 0, 1)}, "s", 0)
	if tree.Size() != 1 || tree.Orphans != 1 {
		t.Fatalf("self-parent: size=%d orphans=%d", tree.Size(), tree.Orphans)
	}
}

func TestTraceKeysSorted(t *testing.T) {
	spans := []Span{
		mkSpan("b", 1, "1", "", "x", 0, 1),
		mkSpan("a", 2, "2", "", "x", 0, 1),
		mkSpan("a", 0, "3", "", "x", 0, 1),
		mkSpan("b", 1, "4", "", "x", 0, 1),
	}
	keys := TraceKeys(spans)
	want := []TraceKey{{"a", 0}, {"a", 2}, {"b", 1}}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewSpanJSONLWriter(&buf)
	in := []Span{
		mkSpan("s", 0, "a", "", "upload", 0, 10),
		mkSpan("s", 0, "b", "a", "store_put", 2, 4),
	}
	in[0].Actor = "trainer-00"
	in[0].Bytes = 612
	in[0].Attrs = map[string]string{"partition": "1"}
	in[1].Links = []SpanContext{{Session: "s", Iter: 0, SpanID: "a"}}
	in[1].Events = []SpanEvent{{Time: in[1].Start.Add(time.Millisecond), Name: "screened_out", Bytes: 64, Detail: "t3"}}
	for _, s := range in {
		w.EmitSpan(s)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Emitted() != 2 || w.Dropped() != 0 || w.err != nil {
		t.Fatalf("emitted=%d dropped=%d err=%v", w.Emitted(), w.Dropped(), w.err)
	}
	// A span without events serialises with no events key at all.
	if first, _, _ := strings.Cut(buf.String(), "\n"); strings.Contains(first, "events") {
		t.Fatalf("event-less span line carries an events key: %s", first)
	}

	out, err := ReadSpanJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("read %d spans, want 2", len(out))
	}
	if out[0].Actor != "trainer-00" || out[0].Bytes != 612 || out[0].Attrs["partition"] != "1" {
		t.Fatalf("span 0 did not round-trip: %+v", out[0])
	}
	if !out[0].Start.Equal(in[0].Start) || !out[0].End.Equal(in[0].End) {
		t.Fatalf("timestamps did not round-trip: %v..%v", out[0].Start, out[0].End)
	}
	if len(out[1].Links) != 1 || out[1].Links[0].SpanID != "a" {
		t.Fatalf("links did not round-trip: %+v", out[1].Links)
	}
	if out[1].Context.Parent != "a" {
		t.Fatalf("parent did not round-trip: %+v", out[1].Context)
	}
	if len(out[1].Events) != 1 || out[1].Events[0].Detail != "t3" || out[1].Events[0].Bytes != 64 ||
		!out[1].Events[0].Time.Equal(in[1].Events[0].Time) {
		t.Fatalf("events did not round-trip: %+v", out[1].Events)
	}
}

func TestReadSpanJSONLSkipsBlankAndRejectsMalformed(t *testing.T) {
	good := `{"name":"x","ctx":{"session":"s","iter":0,"span_id":"a"},"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:01Z"}`
	spans, err := ReadSpanJSONL(strings.NewReader(good + "\n\n" + good + "\n"))
	if err != nil || len(spans) != 2 {
		t.Fatalf("blank-line stream: spans=%d err=%v", len(spans), err)
	}
	_, err = ReadSpanJSONL(strings.NewReader(good + "\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line error = %v, want mention of line 2", err)
	}
}

func TestSpanJSONLWriterErrLatches(t *testing.T) {
	w := NewSpanJSONLWriter(failWriter{})
	// The bufio buffer absorbs writes until it fills; force a flush error.
	w.EmitSpan(mkSpan("s", 0, "a", "", "x", 0, 1))
	if err := w.Flush(); err == nil {
		t.Fatal("flush to failing writer must error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }
