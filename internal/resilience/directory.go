package resilience

import (
	"context"
	"fmt"
	"time"

	"ipls/internal/directory"
	"ipls/internal/pedersen"
)

// DirectoryService is the full directory surface the resilient wrapper
// requires: the session's core view plus the batch-publish, scheduling and
// cleanup capabilities the session discovers structurally. The one
// directory implementation (*directory.Service) and its RPC client
// (*transport.Client) both implement it, so requiring the whole surface
// costs nothing and keeps the wrapper from silently hiding a capability.
type DirectoryService interface {
	Publish(ctx context.Context, rec directory.Record) error
	Lookup(ctx context.Context, addr directory.Addr) (directory.Record, error)
	GradientsFor(ctx context.Context, iter, partition int, aggregator string) []directory.Record
	PartialUpdates(ctx context.Context, iter, partition int) []directory.Record
	Update(ctx context.Context, iter, partition int) (directory.Record, error)
	PartitionAccumulator(ctx context.Context, iter, partition int) (pedersen.Commitment, error)
	AggregatorAccumulator(ctx context.Context, iter, partition int, aggregator string) (pedersen.Commitment, int, error)
	VerifyPartialUpdate(ctx context.Context, iter, partition int, aggregator string, data []byte) (bool, error)
	PublishBatch(ctx context.Context, recs []directory.Record) error
	SetSchedule(iter int, tTrain time.Time)
	RecordsForIter(iter int) []directory.Record
}

// Directory layers the policy's timeouts and retries over a directory
// client. Publishing the same record twice is idempotent in the directory
// (a retry after an applied-but-unacknowledged publish returns nil, not
// ErrConflict), which is what makes blind retries of Publish safe.
type Directory struct {
	inner  DirectoryService
	policy *Policy
}

// WrapDirectory builds a resilient directory client over inner. A nil
// policy means one attempt, no timeouts.
func WrapDirectory(inner DirectoryService, p *Policy) *Directory {
	return &Directory{inner: inner, policy: p}
}

func (d *Directory) Publish(ctx context.Context, rec directory.Record) error {
	return d.policy.run(ctx, "publish", func(actx context.Context) error {
		return d.inner.Publish(actx, rec)
	})
}

func (d *Directory) PublishBatch(ctx context.Context, recs []directory.Record) error {
	return d.policy.run(ctx, "publish_batch", func(actx context.Context) error {
		return d.inner.PublishBatch(actx, recs)
	})
}

func (d *Directory) Lookup(ctx context.Context, addr directory.Addr) (directory.Record, error) {
	var rec directory.Record
	err := d.policy.run(ctx, "lookup", func(actx context.Context) error {
		var e error
		rec, e = d.inner.Lookup(actx, addr)
		return e
	})
	return rec, err
}

func (d *Directory) Update(ctx context.Context, iter, partition int) (directory.Record, error) {
	var rec directory.Record
	err := d.policy.run(ctx, "update", func(actx context.Context) error {
		var e error
		rec, e = d.inner.Update(actx, iter, partition)
		return e
	})
	return rec, err
}

func (d *Directory) PartitionAccumulator(ctx context.Context, iter, partition int) (pedersen.Commitment, error) {
	var com pedersen.Commitment
	err := d.policy.run(ctx, "partition_accumulator", func(actx context.Context) error {
		var e error
		com, e = d.inner.PartitionAccumulator(actx, iter, partition)
		return e
	})
	return com, err
}

func (d *Directory) AggregatorAccumulator(ctx context.Context, iter, partition int, aggregator string) (pedersen.Commitment, int, error) {
	var com pedersen.Commitment
	var n int
	err := d.policy.run(ctx, "aggregator_accumulator", func(actx context.Context) error {
		var e error
		com, n, e = d.inner.AggregatorAccumulator(actx, iter, partition, aggregator)
		return e
	})
	return com, n, err
}

func (d *Directory) VerifyPartialUpdate(ctx context.Context, iter, partition int, aggregator string, data []byte) (bool, error) {
	var ok bool
	err := d.policy.run(ctx, "verify_partial_update", func(actx context.Context) error {
		var e error
		ok, e = d.inner.VerifyPartialUpdate(actx, iter, partition, aggregator, data)
		return e
	})
	return ok, err
}

// GradientsFor and PartialUpdates report no error, so there is nothing to
// retry on; they forward under the per-attempt timeout only.

func (d *Directory) GradientsFor(ctx context.Context, iter, partition int, aggregator string) []directory.Record {
	actx, cancel := d.policy.attemptCtx(ctx)
	defer cancel()
	return d.inner.GradientsFor(actx, iter, partition, aggregator)
}

func (d *Directory) PartialUpdates(ctx context.Context, iter, partition int) []directory.Record {
	actx, cancel := d.policy.attemptCtx(ctx)
	defer cancel()
	return d.inner.PartialUpdates(actx, iter, partition)
}

func (d *Directory) SetSchedule(iter int, tTrain time.Time) { d.inner.SetSchedule(iter, tTrain) }

func (d *Directory) RecordsForIter(iter int) []directory.Record { return d.inner.RecordsForIter(iter) }

// ExpungeGradient forwards to the inner directory when it supports
// Byzantine expunge (*directory.Service does, *transport.Client does not
// yet) and reports an error otherwise, so callers can degrade gracefully.
func (d *Directory) ExpungeGradient(ctx context.Context, addr directory.Addr) error {
	ex, ok := d.inner.(interface {
		ExpungeGradient(ctx context.Context, addr directory.Addr) error
	})
	if !ok {
		return fmt.Errorf("resilience: directory %T does not support expunge", d.inner)
	}
	return d.policy.run(ctx, "expunge_gradient", func(actx context.Context) error {
		return ex.ExpungeGradient(actx, addr)
	})
}

// Quarantined forwards the inner directory's quarantine list (trainer →
// first excluded iteration). It is nil when nobody is quarantined or the
// inner directory keeps no list.
func (d *Directory) Quarantined() map[string]int {
	if q, ok := d.inner.(interface{ Quarantined() map[string]int }); ok {
		return q.Quarantined()
	}
	return nil
}
