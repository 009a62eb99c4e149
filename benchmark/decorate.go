package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipls/internal/cid"
	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/obs"
	"ipls/internal/pedersen"
	"ipls/internal/storage"
)

// Span names recorded at the two boundaries the Session crosses. The
// harness's own spans ("core.round", "core.cleanup") are the parents.
const (
	spanRound   = "core.round"
	spanCleanup = "core.cleanup"

	spanPut    = "storage.put"
	spanGet    = "storage.get"
	spanMerge  = "storage.merge"
	spanPubSub = "storage.pubsub"
	spanDelete = "storage.delete"

	spanPublish  = "directory.publish"
	spanPoll     = "directory.poll"
	spanVerify   = "directory.verify"
	spanAccum    = "directory.accum"
	spanSchedule = "directory.schedule"
	spanRecords  = "directory.records"
	spanExpunge  = "directory.expunge"
)

// span is one call across a layer boundary, timed from outside the layer.
type span struct {
	Name string `json:"name"`
	// Kind narrows the name: the record type for publishes, the query for
	// polls, the operation for pub/sub.
	Kind string `json:"kind,omitempty"`
	// Round identifies the benchmark round in flight; Parent is the
	// harness span (core.round or core.cleanup) that caused the call.
	Round   int    `json:"round"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // since the recorder's epoch
	EndNS   int64  `json:"end_ns"`
	Bytes   int    `json:"bytes,omitempty"`
	// Fanin is the number of blocks a merge-and-download folds.
	Fanin int `json:"fanin,omitempty"`
	// Empty marks a poll that returned nothing new — wasted work.
	Empty  bool `json:"empty,omitempty"`
	Failed bool `json:"failed,omitempty"`
}

// recorder keeps the traced run's spans in memory; they are written out
// only after the run ends. The harness sets the round and phase before
// each call into the Session (one round is in flight at a time).
type recorder struct {
	epoch time.Time
	round atomic.Int64
	phase atomic.Value // string: spanRound or spanCleanup

	mu    sync.Mutex
	spans []span
	// seen is the longest list each list-poll has returned so far, keyed
	// by query, so a poll that returns no more than before counts as empty.
	seen map[pollKey]int
}

type pollKey struct {
	query           string
	iter, partition int
	aggregator      string
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), seen: make(map[pollKey]int)}
	r.phase.Store("")
	return r
}

func (r *recorder) enter(round int, phase string) {
	r.round.Store(int64(round))
	r.phase.Store(phase)
}

// add appends a finished span.
func (r *recorder) add(s span, start, end time.Time) {
	s.StartNS, s.EndNS = start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// boundary records one call across a layer boundary that started at start
// and has just returned, stamped with the round and phase in flight.
func (r *recorder) boundary(s span, start time.Time) {
	end := time.Now()
	s.Round, s.Parent = int(r.round.Load()), r.phase.Load().(string)
	r.add(s, start, end)
}

// listPoll records a poll that returns a growing list: it is empty when
// the list is no longer than the last time the same query was asked.
func (r *recorder) listPoll(key pollKey, start time.Time, n int) {
	r.mu.Lock()
	empty := n <= r.seen[key]
	if !empty {
		r.seen[key] = n
	}
	r.mu.Unlock()
	r.boundary(span{Name: spanPoll, Kind: key.query, Empty: empty}, start)
}

// The Session discovers optional backend capabilities by type assertion,
// so a decorator that hid one (or grew one) would make the traced run
// execute a different protocol path than the timed run. traceStore and
// traceDirectory therefore pick the decorator type whose method set
// mirrors the wrapped backend's, and refuse a backend none of them mirrors.

// storeCaps is every capability the Session probes a storage.Client for;
// both backends here (storage.Network, transport.Client) have them all.
type storeCaps interface {
	storage.Client
	core.Announcer
	Fetch(ctx context.Context, c cid.CID) ([]byte, error)
	MergeGetSpan(ctx context.Context, nodeID string, cs []cid.CID, parent obs.SpanContext) ([]byte, error)
	DeleteAll(c cid.CID)
}

// dirCaps is what both Directory backends offer beyond core.Directory.
type dirCaps interface {
	core.Directory
	core.Scheduler
	PublishBatch(ctx context.Context, recs []directory.Record) error
	RecordsForIter(iter int) []directory.Record
}

// dirByzCaps is the Byzantine-upload handling only the in-process
// directory.Service offers; transport.Client has neither method.
type dirByzCaps interface {
	ExpungeGradient(ctx context.Context, addr directory.Addr) error
	Quarantine(trainer string, fromIter int)
}

// storeCapSet names, in a fixed order, the optional capabilities the
// Session would find on c.
func storeCapSet(c storage.Client) string {
	var caps []string
	if _, ok := c.(core.Announcer); ok {
		caps = append(caps, "Announcer")
	}
	if _, ok := c.(interface {
		Fetch(context.Context, cid.CID) ([]byte, error)
	}); ok {
		caps = append(caps, "Fetch")
	}
	if _, ok := c.(interface {
		MergeGetSpan(context.Context, string, []cid.CID, obs.SpanContext) ([]byte, error)
	}); ok {
		caps = append(caps, "MergeGetSpan")
	}
	if _, ok := c.(interface{ DeleteAll(cid.CID) }); ok {
		caps = append(caps, "DeleteAll")
	}
	return strings.Join(caps, ",")
}

// dirCapSet does the same for a Directory.
func dirCapSet(d core.Directory) string {
	var caps []string
	if _, ok := d.(interface {
		PublishBatch(context.Context, []directory.Record) error
	}); ok {
		caps = append(caps, "PublishBatch")
	}
	if _, ok := d.(core.Scheduler); ok {
		caps = append(caps, "Scheduler")
	}
	if _, ok := d.(interface{ RecordsForIter(int) []directory.Record }); ok {
		caps = append(caps, "RecordsForIter")
	}
	if _, ok := d.(interface {
		ExpungeGradient(context.Context, directory.Addr) error
	}); ok {
		caps = append(caps, "ExpungeGradient")
	}
	if _, ok := d.(interface{ Quarantine(string, int) }); ok {
		caps = append(caps, "Quarantine")
	}
	return strings.Join(caps, ",")
}

// traceStore wraps a storage backend in the timing decorator that has the
// same optional capabilities.
func traceStore(c storage.Client, r *recorder) (storage.Client, error) {
	var out storage.Client
	if full, ok := c.(storeCaps); ok {
		out = &tracedStore{inner: full, rec: r}
	}
	if out == nil || storeCapSet(out) != storeCapSet(c) {
		return nil, fmt.Errorf("no decorator mirrors storage backend %T (capabilities %s)", c, storeCapSet(c))
	}
	return out, nil
}

// traceDirectory wraps a directory backend likewise.
func traceDirectory(d core.Directory, r *recorder) (core.Directory, error) {
	var out core.Directory
	if base, ok := d.(dirCaps); ok {
		td := &tracedDir{inner: base, rec: r}
		out = td
		if byz, ok := d.(dirByzCaps); ok {
			out = &tracedByzDir{tracedDir: td, byz: byz}
		}
	}
	if out == nil || dirCapSet(out) != dirCapSet(d) {
		return nil, fmt.Errorf("no decorator mirrors directory backend %T (capabilities %s)", d, dirCapSet(d))
	}
	return out, nil
}

// traceWrap is the wrapFunc of the traced run.
func traceWrap(r *recorder) wrapFunc {
	return func(c storage.Client, d core.Directory) (storage.Client, core.Directory, error) {
		tc, err := traceStore(c, r)
		if err != nil {
			return nil, nil, err
		}
		td, err := traceDirectory(d, r)
		if err != nil {
			return nil, nil, err
		}
		return tc, td, nil
	}
}

type tracedStore struct {
	inner storeCaps
	rec   *recorder
}

func (t *tracedStore) Put(ctx context.Context, nodeID string, data []byte) (cid.CID, error) {
	start := time.Now()
	c, err := t.inner.Put(ctx, nodeID, data)
	t.rec.boundary(span{Name: spanPut, Bytes: len(data), Failed: err != nil}, start)
	return c, err
}

func (t *tracedStore) Get(ctx context.Context, nodeID string, c cid.CID) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.Get(ctx, nodeID, c)
	t.rec.boundary(span{Name: spanGet, Kind: "get", Bytes: len(data), Failed: err != nil}, start)
	return data, err
}

func (t *tracedStore) Fetch(ctx context.Context, c cid.CID) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.Fetch(ctx, c)
	t.rec.boundary(span{Name: spanGet, Kind: "fetch", Bytes: len(data), Failed: err != nil}, start)
	return data, err
}

func (t *tracedStore) merged(start time.Time, fanin int, data []byte, err error) {
	t.rec.boundary(span{Name: spanMerge, Bytes: len(data), Fanin: fanin, Failed: err != nil}, start)
}

func (t *tracedStore) MergeGet(ctx context.Context, nodeID string, cs []cid.CID) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.MergeGet(ctx, nodeID, cs)
	t.merged(start, len(cs), data, err)
	return data, err
}

func (t *tracedStore) MergeGetSpan(ctx context.Context, nodeID string, cs []cid.CID, parent obs.SpanContext) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.MergeGetSpan(ctx, nodeID, cs, parent)
	t.merged(start, len(cs), data, err)
	return data, err
}

func (t *tracedStore) Announce(topic, from string, data []byte) {
	start := time.Now()
	t.inner.Announce(topic, from, data)
	t.rec.boundary(span{Name: spanPubSub, Kind: "announce", Bytes: len(data)}, start)
}

func (t *tracedStore) Listen(topic string, since int) ([]storage.Announcement, int) {
	start := time.Now()
	msgs, next := t.inner.Listen(topic, since)
	t.rec.boundary(span{Name: spanPubSub, Kind: "listen"}, start)
	return msgs, next
}

func (t *tracedStore) ForgetTopic(topic string) {
	start := time.Now()
	t.inner.ForgetTopic(topic)
	t.rec.boundary(span{Name: spanPubSub, Kind: "forget"}, start)
}

func (t *tracedStore) DeleteAll(c cid.CID) {
	start := time.Now()
	t.inner.DeleteAll(c)
	t.rec.boundary(span{Name: spanDelete}, start)
}

type tracedDir struct {
	inner dirCaps
	rec   *recorder
}

func (t *tracedDir) Publish(ctx context.Context, rec directory.Record) error {
	start := time.Now()
	err := t.inner.Publish(ctx, rec)
	t.rec.boundary(span{Name: spanPublish, Kind: rec.Addr.Type.String(), Failed: err != nil}, start)
	return err
}

func (t *tracedDir) PublishBatch(ctx context.Context, recs []directory.Record) error {
	start := time.Now()
	err := t.inner.PublishBatch(ctx, recs)
	t.rec.boundary(span{Name: spanPublish, Kind: "batch", Failed: err != nil}, start)
	return err
}

func (t *tracedDir) Lookup(ctx context.Context, addr directory.Addr) (directory.Record, error) {
	start := time.Now()
	rec, err := t.inner.Lookup(ctx, addr)
	t.recordPoll("lookup", start, err)
	return rec, err
}

func (t *tracedDir) Update(ctx context.Context, iter, partition int) (directory.Record, error) {
	start := time.Now()
	rec, err := t.inner.Update(ctx, iter, partition)
	t.recordPoll("update", start, err)
	return rec, err
}

// recordPoll records a single-record poll: it is empty when the record is
// not there yet.
func (t *tracedDir) recordPoll(query string, start time.Time, err error) {
	t.rec.boundary(span{Name: spanPoll, Kind: query, Empty: err != nil}, start)
}

func (t *tracedDir) GradientsFor(ctx context.Context, iter, partition int, aggregator string) []directory.Record {
	start := time.Now()
	recs := t.inner.GradientsFor(ctx, iter, partition, aggregator)
	t.rec.listPoll(pollKey{"gradients_for", iter, partition, aggregator}, start, len(recs))
	return recs
}

func (t *tracedDir) PartialUpdates(ctx context.Context, iter, partition int) []directory.Record {
	start := time.Now()
	recs := t.inner.PartialUpdates(ctx, iter, partition)
	t.rec.listPoll(pollKey{"partial_updates", iter, partition, ""}, start, len(recs))
	return recs
}

func (t *tracedDir) PartitionAccumulator(ctx context.Context, iter, partition int) (pedersen.Commitment, error) {
	start := time.Now()
	c, err := t.inner.PartitionAccumulator(ctx, iter, partition)
	t.rec.boundary(span{Name: spanAccum, Kind: "partition", Failed: err != nil}, start)
	return c, err
}

func (t *tracedDir) AggregatorAccumulator(ctx context.Context, iter, partition int, aggregator string) (pedersen.Commitment, int, error) {
	start := time.Now()
	c, n, err := t.inner.AggregatorAccumulator(ctx, iter, partition, aggregator)
	t.rec.boundary(span{Name: spanAccum, Kind: "aggregator", Failed: err != nil}, start)
	return c, n, err
}

func (t *tracedDir) VerifyPartialUpdate(ctx context.Context, iter, partition int, aggregator string, data []byte) (bool, error) {
	start := time.Now()
	ok, err := t.inner.VerifyPartialUpdate(ctx, iter, partition, aggregator, data)
	t.rec.boundary(span{Name: spanVerify, Bytes: len(data), Failed: err != nil}, start)
	return ok, err
}

func (t *tracedDir) SetSchedule(iter int, tTrain time.Time) {
	start := time.Now()
	t.inner.SetSchedule(iter, tTrain)
	t.rec.boundary(span{Name: spanSchedule}, start)
}

func (t *tracedDir) RecordsForIter(iter int) []directory.Record {
	start := time.Now()
	recs := t.inner.RecordsForIter(iter)
	t.rec.boundary(span{Name: spanRecords}, start)
	return recs
}

// tracedByzDir adds the two Byzantine-handling methods for backends that
// have them.
type tracedByzDir struct {
	*tracedDir
	byz dirByzCaps
}

func (t *tracedByzDir) ExpungeGradient(ctx context.Context, addr directory.Addr) error {
	start := time.Now()
	err := t.byz.ExpungeGradient(ctx, addr)
	t.rec.boundary(span{Name: spanExpunge, Kind: "expunge", Failed: err != nil}, start)
	return err
}

func (t *tracedByzDir) Quarantine(trainer string, fromIter int) {
	start := time.Now()
	t.byz.Quarantine(trainer, fromIter)
	t.rec.boundary(span{Name: spanExpunge, Kind: "quarantine"}, start)
}
