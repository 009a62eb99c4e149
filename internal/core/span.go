package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"ipls/internal/obs"
)

// Span plumbing for the session: the protocol engine emits causal spans
// (obs.Span), one tree per FL iteration; occurrences no span records of
// its own become events on the span open when they happen. Role entry
// points (upload, collect, aggregate) open root spans — or children, when
// RunIteration supplies its iteration-wide parent — and phase helpers
// open children under them. Contexts cross process boundaries inside
// directory records (Record.Span) and the merge-and-download RPC, which
// is what lets an aggregator's trace reference the uploads and
// storage-side merges it depended on.

// SetSpans attaches the sink that receives the session's completed spans
// (nil detaches). It must be called before the session runs roles.
func (s *Session) SetSpans(sink obs.SpanSink) { s.spans = sink }

// SetResourceMeter attaches the meter sampled at span open/close so
// emitted spans carry CPU-time and allocation deltas (nil disables,
// the default). Real processes pass obs.RuntimeMeter{}; deterministic
// harnesses either leave it off or supply a virtual meter, since
// process-wide readings would break byte-identical baselines. Like
// SetSpans it must be called before the session runs roles.
func (s *Session) SetResourceMeter(m obs.ResourceMeter) { s.meter = m }

// spanScope is an open span under construction. A nil scope (spans
// disabled) is valid and every method is a no-op, so instrumentation
// sites need no conditionals. Each scope is owned by one goroutine.
type spanScope struct {
	s    *Session
	span obs.Span
	// res is the meter reading at open; end() subtracts it to charge
	// the span its CPU/alloc delta.
	res obs.ResourceSample
	// labelCtx carries this scope's pprof labels; parentCtx restores
	// the enclosing labels when the scope ends. Label propagation rides
	// the scope's goroutine-ownership contract.
	labelCtx  context.Context
	parentCtx context.Context
}

// open stamps the scope's start-of-span state: pprof goroutine labels
// (phase/role/trace, so CPU profiles slice by FL phase) and the opening
// resource sample.
func (sc *spanScope) open(parent context.Context) *spanScope {
	sc.parentCtx = parent
	sc.labelCtx = pprof.WithLabels(parent, pprof.Labels(
		"phase", sc.span.Name,
		"role", sc.span.Actor,
		"trace", fmt.Sprintf("%s/%d", sc.span.Context.Session, sc.span.Context.Iter),
	))
	pprof.SetGoroutineLabels(sc.labelCtx)
	if sc.s.meter != nil {
		sc.res = sc.s.meter.Sample()
	}
	return sc
}

// startSpan opens a span. With a valid parent the span joins the
// parent's trace; otherwise it roots a new tree in the (task, iter)
// trace. Returns nil when the session has neither a span sink nor a
// metrics fold. With the fold alone the span gets no context, labels,
// attributes or links: the fold reads only names, events and durations.
func (s *Session) startSpan(name, actor string, iter int, parent obs.SpanContext) *spanScope {
	if s.spans == nil && s.fold == nil {
		return nil
	}
	sc := &spanScope{s: s, span: obs.Span{Name: name, Actor: actor, Start: time.Now()}}
	if s.spans == nil {
		return sc
	}
	if parent.Valid() {
		sc.span.Context = parent.Child()
	} else {
		sc.span.Context = obs.SpanContext{Session: s.cfg.TaskID, Iter: iter, SpanID: obs.NewSpanID()}
	}
	return sc.open(context.Background())
}

// child opens a sub-span of sc with the same actor, nesting its pprof
// labels under the parent's.
func (sc *spanScope) child(name string) *spanScope {
	if sc == nil {
		return nil
	}
	c := &spanScope{s: sc.s, span: obs.Span{Name: name, Actor: sc.span.Actor, Start: time.Now()}}
	if sc.s.spans == nil {
		return c
	}
	c.span.Context = sc.span.Context.Child()
	return c.open(sc.labelCtx)
}

// ctx returns the scope's span context (zero when spans are disabled).
func (sc *spanScope) ctx() obs.SpanContext {
	if sc == nil {
		return obs.SpanContext{}
	}
	return sc.span.Context
}

// ctxRef returns a pointer to the scope's context for embedding in a
// directory record, or nil when no span sink is attached.
func (sc *spanScope) ctxRef() *obs.SpanContext {
	if sc == nil || sc.s.spans == nil {
		return nil
	}
	c := sc.span.Context
	return &c
}

// bytes adds to the span's payload byte count.
func (sc *spanScope) bytes(n int64) {
	if sc != nil {
		sc.span.Bytes += n
	}
}

// attr sets a span attribute.
func (sc *spanScope) attr(k, v string) {
	if sc == nil || sc.s.spans == nil {
		return
	}
	if sc.span.Attrs == nil {
		sc.span.Attrs = make(map[string]string)
	}
	sc.span.Attrs[k] = v
}

// event annotates the span with a point-in-time occurrence. It returns
// before touching its arguments when spans are off, so an event built
// from values the caller already holds costs nothing then.
func (sc *spanScope) event(name string, bytes int64, detail string) {
	if sc == nil {
		return
	}
	sc.span.Events = append(sc.span.Events, obs.SpanEvent{Time: time.Now(), Name: name, Bytes: bytes, Detail: detail})
}

// link records a causal reference to a span in another role's tree.
func (sc *spanScope) link(c *obs.SpanContext) {
	if sc == nil || sc.s.spans == nil || c == nil || !c.Valid() {
		return
	}
	sc.span.Links = append(sc.span.Links, *c)
}

// end closes the span and emits it to the span sink and the metrics
// fold, charging the metered resource delta and restoring the enclosing
// pprof labels.
func (sc *spanScope) end() {
	if sc == nil {
		return
	}
	sc.span.End = time.Now()
	if sc.s.spans != nil {
		if sc.s.meter != nil {
			d := sc.s.meter.Sample().Sub(sc.res)
			sc.span.CPUNanos += d.CPUNanos
			sc.span.AllocBytes += d.AllocBytes
		}
		pprof.SetGoroutineLabels(sc.parentCtx)
		sc.s.spans.EmitSpan(sc.span)
	}
	if sc.s.fold != nil {
		sc.s.fold.EmitSpan(sc.span)
	}
}

// endErr closes the span, recording the error as an attribute first.
func (sc *spanScope) endErr(err error) {
	if sc != nil && err != nil {
		sc.attr("error", err.Error())
	}
	sc.end()
}
