package core

import (
	"context"
	"testing"
	"time"

	"ipls/internal/cid"
	"ipls/internal/storage"
)

// TestSyncUsesPubSub: with a pub/sub-capable store, multi-aggregator sync
// discovers peer partials through announcements.
func TestSyncUsesPubSub(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.Verifiable = true
	})
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 30)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("pub/sub sync average off by %v", diff)
	}
	discoveries := 0
	for _, rep := range res.Reports {
		discoveries += rep.PubSubDiscoveries
	}
	if discoveries == 0 {
		t.Fatal("no partials discovered via pub/sub")
	}
}

// noPubSubStore hides the Announcer capability of a storage network so the
// directory-polling fallback is exercised.
type noPubSubStore struct {
	net *storage.Network
}

func (s *noPubSubStore) Put(ctx context.Context, nodeID string, data []byte) (cid.CID, error) {
	return s.net.Put(ctx, nodeID, data)
}
func (s *noPubSubStore) Get(ctx context.Context, nodeID string, c cid.CID) ([]byte, error) {
	return s.net.Get(ctx, nodeID, c)
}
func (s *noPubSubStore) MergeGet(ctx context.Context, nodeID string, cs []cid.CID) ([]byte, error) {
	return s.net.MergeGet(ctx, nodeID, cs)
}

// TestSyncFallsBackToDirectoryWithoutPubSub: a store without pub/sub still
// synchronizes through directory polling.
func TestSyncFallsBackToDirectoryWithoutPubSub(t *testing.T) {
	ts := TaskSpec{
		TaskID:                  "no-pubsub",
		ModelDim:                24,
		Partitions:              2,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: 2,
		StorageNodes:            []string{"s0", "s1"},
		TTrain:                  2 * time.Second,
		TSync:                   2 * time.Second,
		PollInterval:            time.Millisecond,
	}
	cfg, err := NewConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	// Build a local stack, then wrap its store to hide pub/sub.
	_, net, dir, err := NewLocalStack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(cfg, &noPubSubStore{net: net}, dir)
	if err != nil {
		t.Fatal(err)
	}
	deltas, wantAvg := randomDeltas(cfg.Trainers, 24, 31)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete without pub/sub: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("fallback average off by %v", diff)
	}
	for _, rep := range res.Reports {
		if rep.PubSubDiscoveries != 0 {
			t.Fatal("pub/sub discoveries reported without pub/sub")
		}
	}
}

// TestForgedAnnouncementHarmless: a garbage or forged pub/sub announcement
// cannot corrupt the aggregate — at worst it wastes a download.
func TestForgedAnnouncementHarmless(t *testing.T) {
	sess, net, _ := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.Verifiable = true
	})
	// Pre-seed every sync topic with garbage and a forged record.
	for p := 0; p < sess.cfg.Spec.Partitions; p++ {
		topic := storage.Topic(sess.cfg.TaskID, 0, p)
		net.Announce(topic, "mallory", []byte("not json"))
		net.Announce(topic, "mallory", []byte(`{"addr":{"uploader":"agg-p0-1","partition":0,"iter":0,"type":2},"cid":"deadbeef","node":"s0"}`))
	}
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 32)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("forged announcements blocked the round: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("forged announcements corrupted the aggregate by %v", diff)
	}
}

// TestCleanupForgetsTopics: per-iteration GC also drops pub/sub logs.
func TestCleanupForgetsTopics(t *testing.T) {
	sess, net, _ := testStack(t, func(ts *TaskSpec) { ts.AggregatorsPerPartition = 2 })
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 33)
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}
	topic := storage.Topic(sess.cfg.TaskID, 0, 0)
	if msgs, _ := net.Listen(topic, 0); len(msgs) == 0 {
		t.Fatal("expected retained announcements before cleanup")
	}
	if _, err := sess.CleanupIteration(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := net.Listen(topic, 0); len(msgs) != 0 {
		t.Fatal("cleanup left pub/sub logs behind")
	}
}
