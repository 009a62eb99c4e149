package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span half of the observability substrate: causal,
// timestamped intervals that reconstruct *why* an iteration took as long
// as it did, where the metrics registry only says *that* it did. The
// paper's headline figures (§V, Figs. 5-7) are latency breakdowns — how an
// iteration splits between gradient upload, storage-side merging,
// aggregator download and global-model publication — and spans are the
// primitive those breakdowns fold out of.
//
// A trace is identified by (session, iteration): every span of one FL
// iteration, across every process and node, shares that pair. Within a
// trace, spans form trees via parent span IDs; causally related spans in
// *other* roles (an aggregator folding in a trainer's gradient) are
// connected with links. Contexts cross process boundaries as a small
// JSON/gob-friendly envelope (SpanContext) threaded through directory
// records and storage RPCs.

// SpanContext identifies one span within a trace. The trace ID is the
// (Session, Iter) pair; SpanID is unique per span; Parent is the span ID
// of the enclosing span (empty for roots). The zero SpanContext is
// invalid and means "no context".
type SpanContext struct {
	Session string `json:"session"`
	Iter    int    `json:"iter"`
	SpanID  string `json:"span_id"`
	Parent  string `json:"parent_id,omitempty"`
}

// Valid reports whether the context identifies a span.
func (c SpanContext) Valid() bool { return c.SpanID != "" }

// Child derives a fresh context for a child span of c, in the same trace.
func (c SpanContext) Child() SpanContext {
	return SpanContext{Session: c.Session, Iter: c.Iter, SpanID: NewSpanID(), Parent: c.SpanID}
}

// spanEntropy distinguishes span IDs minted by different processes, so
// traces merged from several nodes cannot collide; spanSeq distinguishes
// IDs within a process.
var (
	spanEntropy = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano())
		}
		return binary.BigEndian.Uint64(b[:])
	}()
	spanSeq atomic.Uint64
)

// NewSpanID mints a process-unique 16-hex-digit span ID. IDs from
// different processes are disjoint with overwhelming probability (a
// random 48-bit process prefix plus a 16-bit sequence window).
func NewSpanID() string {
	n := spanSeq.Add(1)
	return fmt.Sprintf("%012x%04x", (spanEntropy^n>>16)&0xffffffffffff, uint16(n))
}

// Span is one completed timed interval of work within a trace. Name is
// the phase ("upload", "merge", "aggregate", ...); Actor is the
// participant or node that did the work. Bytes carries the payload size
// the span moved, when applicable. Links reference causally related spans
// in other roles that are not the span's tree parent (e.g. the trainer
// upload spans an aggregation folded in). Events are point-in-time
// occurrences inside the span that no span of their own records (a
// screened-out gradient, a quorum cut, a Byzantine strike), in the order
// they happened.
type Span struct {
	Name    string      `json:"name"`
	Actor   string      `json:"actor,omitempty"`
	Context SpanContext `json:"ctx"`
	Start   time.Time   `json:"start"`
	End     time.Time   `json:"end"`
	Bytes   int64       `json:"bytes,omitempty"`
	// CPUNanos and AllocBytes are the resource deltas metered over the
	// span (see ResourceMeter): CPU time burned and heap bytes allocated
	// while the span was open. Process-wide meters make them upper
	// bounds under concurrency; modeled costs in simulation are exact.
	CPUNanos   int64             `json:"cpu_ns,omitempty"`
	AllocBytes int64             `json:"alloc_bytes,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Links      []SpanContext     `json:"links,omitempty"`
	Events     []SpanEvent       `json:"events,omitempty"`
}

// SpanEvent is one annotation on a span: what happened (Name), when,
// the payload size it concerns (zero when none) and a free-form detail
// naming its subject.
type SpanEvent struct {
	Time   time.Time `json:"time"`
	Name   string    `json:"name"`
	Bytes  int64     `json:"bytes,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Duration is the span's elapsed time (zero if End precedes Start).
func (s Span) Duration() time.Duration {
	if s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// SpanSink receives completed spans. Implementations must be safe for
// concurrent use; emitting must not block protocol progress.
type SpanSink interface {
	EmitSpan(s Span)
}

// MultiSpanSink fans every span out to several sinks (e.g. a bounded
// collector for introspection plus a JSONL file writer).
type MultiSpanSink []SpanSink

var _ SpanSink = (MultiSpanSink)(nil)

// EmitSpan forwards the span to every non-nil sink.
func (m MultiSpanSink) EmitSpan(s Span) {
	for _, sink := range m {
		if sink != nil {
			sink.EmitSpan(s)
		}
	}
}

// SpanCollector is a SpanSink that accumulates completed spans in memory
// and assembles them into per-iteration trees. The zero value is
// unbounded; NewSpanCollector builds a bounded one that evicts
// oldest-first so long runs cannot accumulate millions of spans.
type SpanCollector struct {
	mu       sync.Mutex
	spans    []Span
	capacity int // <= 0: unbounded
	start    int // ring head once a bounded collector is full
}

var _ SpanSink = (*SpanCollector)(nil)

// NewSpanCollector creates a collector retaining at most capacity spans
// (capacity <= 0 means unbounded). When full, the oldest span is evicted.
func NewSpanCollector(capacity int) *SpanCollector {
	return &SpanCollector{capacity: capacity}
}

// EmitSpan stores the span, evicting the oldest when a capacity is set.
func (c *SpanCollector) EmitSpan(s Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity > 0 && len(c.spans) == c.capacity {
		c.spans[c.start] = s
		c.start = (c.start + 1) % c.capacity
		return
	}
	c.spans = append(c.spans, s)
}

// Spans returns a copy of the retained spans, oldest first.
func (c *SpanCollector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, 0, len(c.spans))
	out = append(out, c.spans[c.start:]...)
	out = append(out, c.spans[:c.start]...)
	return out
}

// SpanNode is one span with its resolved children.
type SpanNode struct {
	Span     Span        `json:"span"`
	Children []*SpanNode `json:"children,omitempty"`
}

// SpanTree is the causal forest of one trace: every retained span whose
// context matches (Session, Iter), wired up by parent span IDs. Roots are
// spans without a parent or whose parent was not retained (e.g. it lives
// in a process whose spans were not merged in); Orphans counts the latter.
type SpanTree struct {
	Session string
	Iter    int
	Roots   []*SpanNode
	// Orphans counts non-root spans promoted to roots because their
	// parent span was not present in the input.
	Orphans int
}

// BuildTree filters spans to the trace (session, iter) and assembles the
// parent/child forest. Children are ordered by start time (span ID as the
// tiebreaker), roots likewise, so the result is deterministic for a given
// span set.
func BuildTree(spans []Span, session string, iter int) *SpanTree {
	tree := &SpanTree{Session: session, Iter: iter}
	nodes := make(map[string]*SpanNode)
	var ordered []*SpanNode
	for _, s := range spans {
		if s.Context.Session != session || s.Context.Iter != iter || !s.Context.Valid() {
			continue
		}
		n := &SpanNode{Span: s}
		nodes[s.Context.SpanID] = n
		ordered = append(ordered, n)
	}
	for _, n := range ordered {
		parent := n.Span.Context.Parent
		if parent == "" {
			tree.Roots = append(tree.Roots, n)
			continue
		}
		if p, ok := nodes[parent]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			tree.Orphans++
			tree.Roots = append(tree.Roots, n)
		}
	}
	sortNodes := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Span.Start.Equal(ns[j].Span.Start) {
				return ns[i].Span.Start.Before(ns[j].Span.Start)
			}
			return ns[i].Span.Context.SpanID < ns[j].Span.Context.SpanID
		})
	}
	sortNodes(tree.Roots)
	for _, n := range ordered {
		sortNodes(n.Children)
	}
	return tree
}

// Walk visits every node of the forest in pre-order.
func (t *SpanTree) Walk(fn func(n *SpanNode, depth int)) {
	var walk func(ns []*SpanNode, depth int)
	walk = func(ns []*SpanNode, depth int) {
		for _, n := range ns {
			fn(n, depth)
			walk(n.Children, depth+1)
		}
	}
	walk(t.Roots, 0)
}

// Size returns the number of spans in the forest.
func (t *SpanTree) Size() int {
	n := 0
	t.Walk(func(*SpanNode, int) { n++ })
	return n
}

// TraceKey identifies one trace (one FL iteration of one session).
type TraceKey struct {
	Session string
	Iter    int
}

// TraceKeys lists the distinct (session, iter) traces present in spans,
// sorted by session then iteration.
func TraceKeys(spans []Span) []TraceKey {
	seen := make(map[TraceKey]bool)
	var keys []TraceKey
	for _, s := range spans {
		k := TraceKey{Session: s.Context.Session, Iter: s.Context.Iter}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Session != keys[j].Session {
			return keys[i].Session < keys[j].Session
		}
		return keys[i].Iter < keys[j].Iter
	})
	return keys
}
