package resilience

import (
	"context"
	"fmt"
	"time"

	"ipls/internal/cid"
	"ipls/internal/model"
	"ipls/internal/obs"
	"ipls/internal/scalar"
	"ipls/internal/storage"
)

// fetcher is the optional storage capability of content routing: find any
// live replica holding a block, by CID alone.
type fetcher interface {
	Fetch(ctx context.Context, c cid.CID) ([]byte, error)
}

// mergeSpanner is the optional storage capability of carrying a span
// context with a merge-and-download request.
type mergeSpanner interface {
	MergeGetSpan(ctx context.Context, nodeID string, cs []cid.CID, parent obs.SpanContext) ([]byte, error)
}

// putSpanner and getSpanner are the matching capabilities for uploads and
// downloads, so all three request structs carry the causal envelope across
// the storage boundary uniformly.
type putSpanner interface {
	PutSpan(ctx context.Context, nodeID string, data []byte, parent obs.SpanContext) (cid.CID, error)
}

type getSpanner interface {
	GetSpan(ctx context.Context, nodeID string, c cid.CID, parent obs.SpanContext) ([]byte, error)
}

// announcer mirrors core.Announcer: the optional pub/sub capability the
// session discovers structurally. The resilient adapter re-exposes it only
// when the wrapped client has it, so capability detection stays truthful.
type announcer interface {
	Announce(topic, from string, data []byte)
	Listen(topic string, since int) ([]storage.Announcement, int)
	ForgetTopic(topic string)
}

// deleter is the optional storage capability of deleting a block from
// every replica (iteration cleanup).
type deleter interface {
	DeleteAll(c cid.CID)
}

// Client is the resilient storage client. It speaks the request-struct
// style (storage.PutRequest / GetRequest / MergeRequest) and layers the
// policy's timeouts and retries over the wrapped client, plus two
// failover strategies the flat API cannot express:
//
//   - Get: when the recorded holder cannot serve a block, re-route by
//     content (Fetch) to any surviving replica.
//   - MergeGet: when the provider cannot serve the merge, degrade to
//     fetching the gradient blocks individually and folding them locally.
//
// Use Storage() to obtain a positional storage.Client view for APIs like
// core.NewSession.
type Client struct {
	inner  storage.Client
	field  *scalar.Field
	policy *Policy
}

// Wrap builds a resilient client over inner. The field is needed only for
// MergeGet degradation (local folding); nil disables that fallback.
// A nil policy means one attempt, no timeouts.
func Wrap(inner storage.Client, field *scalar.Field, p *Policy) *Client {
	return &Client{inner: inner, field: field, policy: p}
}

// Put uploads a block under the policy's timeout and retry budget.
// Node-level fallback for uploads stays with the caller (the session's
// putWithFallback), which must know the node that actually accepted the
// block to record it truthfully in the directory.
func (c *Client) Put(ctx context.Context, req storage.PutRequest) (cid.CID, error) {
	var id cid.CID
	err := c.policy.run(ctx, "put", func(actx context.Context) error {
		var e error
		if req.Span.Valid() {
			if ps, ok := c.inner.(putSpanner); ok {
				id, e = ps.PutSpan(actx, req.Node, req.Data, req.Span)
				return e
			}
		}
		id, e = c.inner.Put(actx, req.Node, req.Data)
		return e
	})
	return id, err
}

// Get downloads a block from its recorded holder, failing over to content
// routing across surviving replicas when the holder cannot serve it. A
// failed-over block is CID-verified before being returned, so a byzantine
// replica cannot substitute data.
func (c *Client) Get(ctx context.Context, req storage.GetRequest) ([]byte, error) {
	var data []byte
	err := c.policy.run(ctx, "get", func(actx context.Context) error {
		var e error
		if req.Span.Valid() {
			if gs, ok := c.inner.(getSpanner); ok {
				data, e = gs.GetSpan(actx, req.Node, req.CID, req.Span)
				return e
			}
		}
		data, e = c.inner.Get(actx, req.Node, req.CID)
		return e
	})
	if err == nil {
		return data, nil
	}
	if ctx.Err() != nil {
		return nil, err
	}
	f, ok := c.inner.(fetcher)
	if !ok {
		return nil, err
	}
	start := time.Now()
	var fetched []byte
	ferr := c.policy.run(ctx, "fetch", func(actx context.Context) error {
		var e error
		fetched, e = f.Fetch(actx, req.CID)
		return e
	})
	if ferr != nil {
		// The holder's error names the real failure; the failover error
		// just says no replica could step in either.
		return nil, fmt.Errorf("%w (failover: %v)", err, ferr)
	}
	if !cid.Verify(fetched, req.CID) {
		return nil, fmt.Errorf("resilience: failover block %s failed CID verification", req.CID.Short())
	}
	c.countFailover("get")
	c.policy.emitSpan("failover", "get", start, nil)
	return fetched, nil
}

// Fetch routes a block by content under the policy, for callers that have
// no recorded holder at all. Returns storage.ErrNotFound identity when the
// wrapped client has no content routing.
func (c *Client) Fetch(ctx context.Context, id cid.CID) ([]byte, error) {
	f, ok := c.inner.(fetcher)
	if !ok {
		return nil, fmt.Errorf("%w: no content routing for %s", storage.ErrNotFound, id.Short())
	}
	var data []byte
	err := c.policy.run(ctx, "fetch", func(actx context.Context) error {
		var e error
		data, e = f.Fetch(actx, id)
		return e
	})
	return data, err
}

// MergeGet asks the provider to pre-aggregate the listed gradient blocks.
// When the provider cannot serve the merge, the client degrades: each
// block is fetched individually (itself with replica failover) and folded
// locally, trading the paper's provider-side aggregation bandwidth win for
// availability. The degraded path needs the scalar field; without it the
// provider's error is returned as-is.
func (c *Client) MergeGet(ctx context.Context, req storage.MergeRequest) ([]byte, error) {
	var out []byte
	err := c.policy.run(ctx, "merge_get", func(actx context.Context) error {
		var e error
		if req.Span.Valid() {
			if ms, ok := c.inner.(mergeSpanner); ok {
				out, e = ms.MergeGetSpan(actx, req.Node, req.CIDs, req.Span)
				return e
			}
		}
		out, e = c.inner.MergeGet(actx, req.Node, req.CIDs)
		return e
	})
	if err == nil {
		return out, nil
	}
	if ctx.Err() != nil || c.field == nil || len(req.CIDs) == 0 {
		return nil, err
	}
	start := time.Now()
	datas := make([][]byte, 0, len(req.CIDs))
	for _, id := range req.CIDs {
		data, gerr := c.degradedFetch(ctx, req.Node, id)
		if gerr != nil {
			return nil, fmt.Errorf("%w (degraded merge: %v)", err, gerr)
		}
		datas = append(datas, data)
	}
	data, merr := model.Merge(c.field, datas...)
	if merr != nil {
		return nil, fmt.Errorf("%w (degraded merge: %v)", err, merr)
	}
	c.countFailover("merge_get")
	c.policy.emitSpan("degraded_merge", "merge_get", start, nil)
	return data, nil
}

// degradedFetch retrieves one block for the local fold: content routing
// first when available (the provider is known to be struggling), the
// provider itself otherwise.
func (c *Client) degradedFetch(ctx context.Context, node string, id cid.CID) ([]byte, error) {
	if f, ok := c.inner.(fetcher); ok {
		var data []byte
		err := c.policy.run(ctx, "fetch", func(actx context.Context) error {
			var e error
			data, e = f.Fetch(actx, id)
			return e
		})
		if err == nil {
			if !cid.Verify(data, id) {
				return nil, fmt.Errorf("resilience: degraded-merge block %s failed CID verification", id.Short())
			}
			return data, nil
		}
		return nil, err
	}
	return c.Get(ctx, storage.GetRequest{Node: node, CID: id})
}

// countFailover bumps failovers_total{op=...}.
func (c *Client) countFailover(op string) {
	if c.policy != nil {
		c.policy.Metrics.Counter("failovers_total", "op", op).Inc()
	}
}

// Storage returns the positional storage.Client view of c, for APIs such
// as core.NewSession. The view forwards the optional capabilities the
// session discovers structurally — MergeGetSpan, Fetch, DeleteAll — and
// exposes pub/sub only when the wrapped client actually has it.
func (c *Client) Storage() storage.Client {
	base := store{c}
	if a, ok := c.inner.(announcer); ok {
		return pubsubStore{store: base, ann: a}
	}
	return base
}

// store adapts Client to the positional storage.Client interface.
type store struct {
	c *Client
}

var _ storage.Client = store{}
var _ fetcher = store{}
var _ mergeSpanner = store{}
var _ putSpanner = store{}
var _ getSpanner = store{}

func (s store) Put(ctx context.Context, nodeID string, data []byte) (cid.CID, error) {
	return s.c.Put(ctx, storage.PutRequest{Node: nodeID, Data: data})
}

func (s store) Get(ctx context.Context, nodeID string, id cid.CID) ([]byte, error) {
	return s.c.Get(ctx, storage.GetRequest{Node: nodeID, CID: id})
}

func (s store) MergeGet(ctx context.Context, nodeID string, cs []cid.CID) ([]byte, error) {
	return s.c.MergeGet(ctx, storage.MergeRequest{Node: nodeID, CIDs: cs})
}

func (s store) MergeGetSpan(ctx context.Context, nodeID string, cs []cid.CID, parent obs.SpanContext) ([]byte, error) {
	return s.c.MergeGet(ctx, storage.MergeRequest{Node: nodeID, CIDs: cs, Span: parent})
}

func (s store) PutSpan(ctx context.Context, nodeID string, data []byte, parent obs.SpanContext) (cid.CID, error) {
	return s.c.Put(ctx, storage.PutRequest{Node: nodeID, Data: data, Span: parent})
}

func (s store) GetSpan(ctx context.Context, nodeID string, c cid.CID, parent obs.SpanContext) ([]byte, error) {
	return s.c.Get(ctx, storage.GetRequest{Node: nodeID, CID: c, Span: parent})
}

func (s store) Fetch(ctx context.Context, id cid.CID) ([]byte, error) {
	return s.c.Fetch(ctx, id)
}

// DeleteAll forwards iteration cleanup when the wrapped client supports
// it. Cleanup is best-effort by design, so lacking the capability is not
// an error.
func (s store) DeleteAll(id cid.CID) {
	if d, ok := s.c.inner.(deleter); ok {
		d.DeleteAll(id)
	}
}

// pubsubStore is the store flavor for wrapped clients with pub/sub.
type pubsubStore struct {
	store
	ann announcer
}

var _ announcer = pubsubStore{}

func (p pubsubStore) Announce(topic, from string, data []byte) { p.ann.Announce(topic, from, data) }

func (p pubsubStore) Listen(topic string, since int) ([]storage.Announcement, int) {
	return p.ann.Listen(topic, since)
}

func (p pubsubStore) ForgetTopic(topic string) { p.ann.ForgetTopic(topic) }
