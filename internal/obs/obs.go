// Package obs is the repo's observability substrate: a concurrent metrics
// registry (counters, gauges, fixed-bucket histograms), a bounded event
// ring, and HTTP introspection handlers. It is stdlib-only and imports
// nothing else from this module, so every layer — storage, netsim,
// transport, protocol core, commands — can depend on it.
//
// The paper's contribution is quantitative (iteration latency, bytes moved
// per aggregation, merge-and-download savings, §V), so the registry is the
// shared measurement substrate every experiment and optimisation reports
// against. Metric names are identical between the in-memory storage
// network, the discrete-event simulator and the TCP transport, which makes
// simulated and real runs directly comparable.
//
// All instruments are safe for concurrent use. A nil *Registry and nil
// instruments are valid no-ops, so instrumented code needs no "is
// observability on?" branches.
package obs

import (
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram bucket upper bounds in seconds,
// spanning sub-millisecond phase timings to minute-long iterations.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing int64. The nil Counter discards.
type Counter struct {
	v      atomic.Int64
	name   string
	labels string
}

// Add increments the counter by n (negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. The nil Gauge discards.
type Gauge struct {
	bits   atomic.Uint64
	name   string
	labels string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (zero for the nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. The nil
// Histogram discards.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1
	sum    float64
	total  uint64
	name   string
	labels string
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper limits; Counts has one extra entry for
	// the +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Quantile estimates the p-quantile (0 <= p <= 1) of the observed
// distribution by linear interpolation within the owning bucket, the
// same estimator as Prometheus's histogram_quantile. Values in the
// implicit +Inf bucket are reported as the highest finite bound (the
// estimate saturates there — pick wider buckets if that happens). An
// empty histogram reports 0.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	cum := uint64(0)
	for i, bound := range s.Bounds {
		prev := float64(cum)
		cum += s.Counts[i]
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			if s.Counts[i] == 0 {
				return lower
			}
			return lower + (bound-lower)*(rank-prev)/float64(s.Counts[i])
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.total,
	}
}

// registryShards is the number of lock stripes in a Registry. Instrument
// keys hash onto shards, so concurrent lookups of unrelated metrics take
// unrelated locks; a power of two keeps the index a mask. 64 shards keep
// the contention of 10k concurrent writers off any single mutex while the
// empty registry stays small (a few KB of maps).
const registryShards = 64

// DefaultMaxCardinality bounds the number of distinct instruments (name +
// label combination) a Registry will create. A misbehaving label (e.g. a
// per-request ID) otherwise grows the registry without bound; past the
// limit new identities are dropped and counted in DroppedMetricName
// instead.
const DefaultMaxCardinality = 1 << 16

// DroppedMetricName is the counter reporting instruments refused because
// the registry hit its cardinality limit. It is maintained outside the
// limit and appears in snapshots and Prometheus output once non-zero.
const DroppedMetricName = "obs_dropped_metrics_total"

// registryShard is one lock stripe: a mutex and the instrument maps of
// every key hashing onto it.
type registryShard struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Registry holds named instruments. Instruments are identified by name
// plus an optional set of label pairs; asking for the same identity twice
// returns the same instrument. The nil *Registry hands out nil (no-op)
// instruments, so components can be built uninstrumented at zero cost.
//
// Storage is lock-striped: keys hash onto registryShards independent
// mutex-guarded maps, so lookups from thousands of concurrent writers do
// not serialize on one lock. Total cardinality is bounded at
// DefaultMaxCardinality; identities past the limit yield nil (no-op)
// instruments and are counted in DroppedMetricName.
type Registry struct {
	shards  [registryShards]registryShard
	size    atomic.Int64 // live instruments across all shards
	limit   int64        // max instruments; tests lower it
	dropped atomic.Int64 // identities refused at the limit
}

// NewRegistry creates an empty registry bounded at DefaultMaxCardinality.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].counters = make(map[string]*Counter)
		r.shards[i].gauges = make(map[string]*Gauge)
		r.shards[i].histograms = make(map[string]*Histogram)
	}
	r.limit = DefaultMaxCardinality
	return r
}

// shardSeed randomizes the shard hash per process; shard choice only has
// to be stable within one process.
var shardSeed = maphash.MakeSeed()

// shardFor picks the lock stripe owning key.
func (r *Registry) shardFor(key string) *registryShard {
	return &r.shards[maphash.String(shardSeed, key)&(registryShards-1)]
}

// admit reserves one instrument slot, or counts a drop and reports false
// when the registry is at its cardinality limit. The reserve-then-undo
// scheme keeps the bound exact under concurrent creation across shards.
func (r *Registry) admit() bool {
	if r.size.Add(1) > r.limit {
		r.size.Add(-1)
		r.dropped.Add(1)
		return false
	}
	return true
}

// fmtLabels renders alternating key/value pairs as a canonical (sorted)
// Prometheus label block, e.g. {node="ipfs-00"}. Empty input yields "".
func fmtLabels(labelPairs []string) string {
	if len(labelPairs) == 0 {
		return ""
	}
	if len(labelPairs)%2 != 0 {
		panic("obs: label pairs must alternate key, value")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		pairs = append(pairs, kv{labelPairs[i], labelPairs[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter with the given name and
// label pairs. At the cardinality limit a new identity returns the nil
// (no-op) counter and is counted in DroppedMetricName.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	labels := fmtLabels(labelPairs)
	key := name + labels
	sh := r.shardFor(key)
	sh.mu.RLock()
	c, ok := sh.counters[key]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c, ok = sh.counters[key]; ok {
		return c
	}
	if !r.admit() {
		return nil
	}
	c = &Counter{name: name, labels: labels}
	sh.counters[key] = c
	return c
}

// Gauge returns (creating if needed) the gauge with the given name and
// label pairs. At the cardinality limit a new identity returns the nil
// (no-op) gauge and is counted in DroppedMetricName.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	labels := fmtLabels(labelPairs)
	key := name + labels
	sh := r.shardFor(key)
	sh.mu.RLock()
	g, ok := sh.gauges[key]
	sh.mu.RUnlock()
	if ok {
		return g
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if g, ok = sh.gauges[key]; ok {
		return g
	}
	if !r.admit() {
		return nil
	}
	g = &Gauge{name: name, labels: labels}
	sh.gauges[key] = g
	return g
}

// Histogram returns (creating if needed) the histogram with the given name
// and label pairs. buckets are ascending upper bounds; nil uses
// DefBuckets. The buckets of the first registration win. At the
// cardinality limit a new identity returns the nil (no-op) histogram and
// is counted in DroppedMetricName.
func (r *Registry) Histogram(name string, buckets []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	labels := fmtLabels(labelPairs)
	key := name + labels
	sh := r.shardFor(key)
	sh.mu.RLock()
	h, ok := sh.histograms[key]
	sh.mu.RUnlock()
	if ok {
		return h
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if h, ok = sh.histograms[key]; ok {
		return h
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q buckets must be ascending", name))
	}
	if !r.admit() {
		return nil
	}
	h = &Histogram{name: name, labels: labels, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	sh.histograms[key] = h
	return h
}

// Snapshot is a point-in-time copy of every instrument, keyed by
// name{labels}. It marshals deterministically (encoding/json sorts map
// keys), so snapshots are diffable across runs.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every instrument. Once any
// identity has been dropped at the cardinality limit, the drop count
// appears as the DroppedMetricName counter.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		counters := make(map[string]*Counter, len(sh.counters))
		for k, c := range sh.counters {
			counters[k] = c
		}
		gauges := make(map[string]*Gauge, len(sh.gauges))
		for k, g := range sh.gauges {
			gauges[k] = g
		}
		hists := make(map[string]*Histogram, len(sh.histograms))
		for k, h := range sh.histograms {
			hists[k] = h
		}
		sh.mu.RUnlock()
		for k, c := range counters {
			snap.Counters[k] = c.Value()
		}
		for k, g := range gauges {
			snap.Gauges[k] = g.Value()
		}
		for k, h := range hists {
			snap.Histograms[k] = h.snapshot()
		}
	}
	if d := r.dropped.Load(); d > 0 {
		snap.Counters[DroppedMetricName] = d
	}
	return snap
}

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4): one # TYPE line per metric family, histograms with
// cumulative _bucket/_sum/_count series.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	var counters []*Counter
	var gauges []*Gauge
	var hists []*Histogram
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, c := range sh.counters {
			counters = append(counters, c)
		}
		for _, g := range sh.gauges {
			gauges = append(gauges, g)
		}
		for _, h := range sh.histograms {
			hists = append(hists, h)
		}
		sh.mu.RUnlock()
	}
	if d := r.dropped.Load(); d > 0 {
		syn := &Counter{name: DroppedMetricName}
		syn.v.Store(d)
		counters = append(counters, syn)
	}

	sort.Slice(counters, func(i, j int) bool {
		return counters[i].name+counters[i].labels < counters[j].name+counters[j].labels
	})
	sort.Slice(gauges, func(i, j int) bool {
		return gauges[i].name+gauges[i].labels < gauges[j].name+gauges[j].labels
	})
	sort.Slice(hists, func(i, j int) bool {
		return hists[i].name+hists[i].labels < hists[j].name+hists[j].labels
	})

	lastType := ""
	typeLine := func(name, kind string) string {
		if name == lastType {
			return ""
		}
		lastType = name
		return fmt.Sprintf("# TYPE %s %s\n", name, kind)
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "%s%s%s %d\n", typeLine(c.name, "counter"), c.name, c.labels, c.Value()); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "%s%s%s %v\n", typeLine(g.name, "gauge"), g.name, g.labels, g.Value()); err != nil {
			return err
		}
	}
	for _, h := range hists {
		snap := h.snapshot()
		if _, err := fmt.Fprint(w, typeLine(h.name, "histogram")); err != nil {
			return err
		}
		cum := uint64(0)
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			if err := writeBucket(w, h, fmt.Sprintf("%v", bound), cum); err != nil {
				return err
			}
		}
		cum += snap.Counts[len(snap.Bounds)]
		if err := writeBucket(w, h, "+Inf", cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %v\n%s_count%s %d\n",
			h.name, h.labels, snap.Sum, h.name, h.labels, snap.Count); err != nil {
			return err
		}
	}
	return nil
}

// writeBucket emits one cumulative histogram bucket, splicing le into any
// existing label block.
func writeBucket(w io.Writer, h *Histogram, le string, cum uint64) error {
	labels := h.labels
	if labels == "" {
		labels = fmt.Sprintf("{le=%q}", le)
	} else {
		labels = strings.TrimSuffix(labels, "}") + fmt.Sprintf(",le=%q}", le)
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, labels, cum)
	return err
}
