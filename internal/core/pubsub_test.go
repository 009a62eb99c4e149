package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

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

// deafStore is a storage network whose pub/sub bus loses every
// announcement.
type deafStore struct{ *storage.Network }

func (deafStore) Announce(topic, from string, data []byte) {}

// TestSyncReadsDirectoryAfterLostAnnouncements: when no announcement
// arrives, each aggregator finds its peer's partial in the directory once
// t_sync passes, so the round applies the exact average without declaring
// the peer missing or redoing its work.
func TestSyncReadsDirectoryAfterLostAnnouncements(t *testing.T) {
	base, net, dir := testStack(t, func(ts *TaskSpec) {
		ts.AggregatorsPerPartition = 2
		ts.TSync = 50 * time.Millisecond
	})
	sess, err := NewSession(base.cfg, deafStore{net}, dir)
	if err != nil {
		t.Fatal(err)
	}
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 31)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete with every announcement lost: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("average off by %v", diff)
	}
	for id, rep := range res.Reports {
		if rep.PubSubDiscoveries != 0 || len(rep.MissingPeers) > 0 || len(rep.TookOverFor) > 0 {
			t.Fatalf("%s: %d pub/sub discoveries, missing %v, took over for %v; want the peer's partial from the directory",
				id, rep.PubSubDiscoveries, rep.MissingPeers, rep.TookOverFor)
		}
	}
}

// TestNewSessionRefusesIncompleteBackends: a backend that lacks part of the
// session contract is refused at construction, naming its type.
func TestNewSessionRefusesIncompleteBackends(t *testing.T) {
	base, net, dir := testStack(t, nil)
	store := struct{ storage.Client }{net}
	if _, err := NewSession(base.cfg, store, dir); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T", store)) {
		t.Errorf("bare storage.Client: got %v, want an error naming %T", err, store)
	}
	d := struct{ Directory }{dir}
	if _, err := NewSession(base.cfg, net, d); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T", d)) {
		t.Errorf("bare Directory: got %v, want an error naming %T", err, d)
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
