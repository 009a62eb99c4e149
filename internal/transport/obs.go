package transport

import (
	"strconv"
	"sync"
	"time"

	"ipls/internal/directory"
	"ipls/internal/obs"
)

// serverObs is the instrumentation shared by a server's RPC services. The
// registry and span sink can be swapped at runtime (SetMetrics/SetSpans),
// so access is guarded; a zero serverObs discards everything.
type serverObs struct {
	mu    sync.RWMutex
	reg   *obs.Registry
	spans obs.SpanSink
}

// count bumps rpc_requests_total{method=...} for one served call.
func (o *serverObs) count(method string) {
	o.mu.RLock()
	reg := o.reg
	o.mu.RUnlock()
	reg.Counter("rpc_requests_total", "method", method).Inc()
}

// published emits one "publish" span for a record the directory accepted
// over [start, now], so a serve-mode daemon's /spans shows every upload
// without the remote sessions shipping their traces home. The span joins
// the publisher's trace when the record carries its span context, and
// roots a (directory, iter) trace otherwise.
func (o *serverObs) published(rec directory.Record, start time.Time) {
	o.mu.RLock()
	sink := o.spans
	o.mu.RUnlock()
	if sink == nil {
		return
	}
	ctx := obs.SpanContext{Session: "directory", Iter: rec.Addr.Iter, SpanID: obs.NewSpanID()}
	if rec.Span != nil && rec.Span.Valid() {
		ctx = rec.Span.Child()
	}
	sink.EmitSpan(obs.Span{
		Name: "publish", Actor: rec.Addr.Uploader, Context: ctx, Start: start, End: time.Now(),
		Attrs: map[string]string{
			"type":      rec.Addr.Type.String(),
			"partition": strconv.Itoa(rec.Addr.Partition),
			"cid":       rec.CID.Short(),
			"node":      rec.Node,
		},
	})
}

// SetMetrics points the server's RPC instrumentation (request counters) at
// a registry; nil detaches. Storage byte counters live on the storage
// network itself (storage.Network.SetMetrics).
func (s *Server) SetMetrics(reg *obs.Registry) {
	s.obs.mu.Lock()
	s.obs.reg = reg
	s.obs.mu.Unlock()
}

// SetSpans attaches the sink that receives one "publish" span per record
// the directory service accepts; nil detaches.
func (s *Server) SetSpans(sink obs.SpanSink) {
	s.obs.mu.Lock()
	s.obs.spans = sink
	s.obs.mu.Unlock()
}

// clientMetrics are the client's wire-level byte counters, labelled with
// the storage node addressed (content-routed fetches use node="*").
type clientMetrics struct {
	mu  sync.RWMutex
	reg *obs.Registry
}

func (m *clientMetrics) registry() *obs.Registry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.reg
}

func (m *clientMetrics) uploaded(node string, n int) {
	m.registry().Counter("bytes_uploaded_total", "node", node).Add(int64(n))
}

func (m *clientMetrics) downloaded(node string, n int) {
	m.registry().Counter("bytes_downloaded_total", "node", node).Add(int64(n))
}

// SetMetrics points the client's byte accounting at a registry; nil
// detaches. The counters use the canonical names
// (bytes_uploaded_total{node=...} / bytes_downloaded_total{node=...}), so a
// trainer or aggregator process exposes the same families a simulated run
// records.
func (c *Client) SetMetrics(reg *obs.Registry) {
	c.metrics.mu.Lock()
	c.metrics.reg = reg
	c.metrics.mu.Unlock()
}
