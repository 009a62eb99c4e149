package obs

// FoldRule derives one series from a span stream. A rule naming a Span is
// a histogram of the durations, in seconds, of the spans so named (only
// those carrying an event named Event, when Event is set). A rule naming
// no Span counts the events named Event. Labels are the series' label
// pairs. A table holds one rule per span name and one per event name.
type FoldRule struct {
	Span, Event, Series string
	Labels              []string
}

// MetricFold is a SpanSink that folds completed spans into a registry
// through a fixed table of FoldRules, so a program that records an
// occurrence as a span or a span event need not count it a second time.
// Every series of the table is registered up front, so the registry
// lists it from the start and folding allocates nothing.
type MetricFold struct {
	timers map[string]foldTimer // by span name
	counts map[string]*Counter  // by event name
}

type foldTimer struct {
	event string // the span must carry it to be timed, if set
	h     *Histogram
}

// NewMetricFold registers the table's series in reg and returns the sink
// that feeds them, or nil for a nil registry.
func NewMetricFold(reg *Registry, table []FoldRule) *MetricFold {
	if reg == nil {
		return nil
	}
	f := &MetricFold{timers: map[string]foldTimer{}, counts: map[string]*Counter{}}
	for _, r := range table {
		if r.Span != "" {
			f.timers[r.Span] = foldTimer{r.Event, reg.Histogram(r.Series, DefBuckets, r.Labels...)}
		} else {
			f.counts[r.Event] = reg.Counter(r.Series, r.Labels...)
		}
	}
	return f
}

// EmitSpan counts the span's events and observes its duration on its
// histogram; events and spans the table does not name are ignored.
func (f *MetricFold) EmitSpan(s Span) {
	t := f.timers[s.Name]
	timed := t.event == ""
	for _, ev := range s.Events {
		f.counts[ev.Name].Inc() // a nil Counter discards
		timed = timed || ev.Name == t.event
	}
	if timed {
		t.h.Observe(s.Duration().Seconds()) // nil for an untimed span
	}
}
