package directory

import (
	"context"
	"errors"
	"testing"
	"time"

	"ipls/internal/cid"
	"ipls/internal/model"
)

func TestPublishBatchRecordsAll(t *testing.T) {
	f := newFixture(t, false)
	recs := make([]Record, 4)
	for i := range recs {
		data := []byte{byte(i), 1, 2}
		c, err := f.store.Put(context.Background(), "ipfs-0", data)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = Record{
			Addr: Addr{Uploader: "t0", Partition: i, Iter: 0, Type: TypeGradient},
			CID:  c, Node: "ipfs-0",
		}
	}
	if err := f.dir.PublishBatch(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if _, err := f.dir.Lookup(context.Background(), recs[i].Addr); err != nil {
			t.Fatalf("record %d missing after batch publish: %v", i, err)
		}
	}
	stats := f.dir.Stats()
	if stats.Publishes != 4 {
		t.Fatalf("Publishes = %d, want 4", stats.Publishes)
	}
	if stats.Requests != 1 {
		t.Fatalf("Requests = %d, want 1 (batched)", stats.Requests)
	}
}

func TestPublishBatchAbortsOnError(t *testing.T) {
	f := newFixture(t, true) // verifiable: missing commitment fails
	c := cid.Sum([]byte("x"))
	recs := []Record{
		{Addr: Addr{Uploader: "t0", Partition: 0, Iter: 0, Type: TypeGradient}, CID: c, Node: "ipfs-0"},
		{Addr: Addr{Uploader: "t0", Partition: 1, Iter: 0, Type: TypeGradient}, CID: c, Node: "ipfs-0"},
	}
	err := f.dir.PublishBatch(context.Background(), recs)
	if !errors.Is(err, ErrMissingCommitment) {
		t.Fatalf("expected wrapped ErrMissingCommitment, got %v", err)
	}
}

func TestScheduleRejectionCountsAsRejection(t *testing.T) {
	f := newFixture(t, false)
	base := time.Now()
	f.dir.SetClock(func() time.Time { return base })
	f.dir.SetSchedule(5, base.Add(-time.Second))
	err := f.dir.Publish(context.Background(), Record{
		Addr: Addr{Uploader: "t0", Partition: 0, Iter: 5, Type: TypeGradient},
		CID:  cid.Sum([]byte("late")), Node: "ipfs-0",
	})
	if !errors.Is(err, ErrTooLate) {
		t.Fatalf("expected ErrTooLate, got %v", err)
	}
	if f.dir.Stats().Rejections != 1 {
		t.Fatal("late publish not counted as rejection")
	}
	// Updates and partials are not gated by t_train.
	err = f.dir.Publish(context.Background(), Record{
		Addr: Addr{Uploader: "agg", Partition: 0, Iter: 5, Type: TypePartialUpdate},
		CID:  cid.Sum([]byte("partial")), Node: "ipfs-0",
	})
	if err != nil {
		t.Fatalf("partial update must not be schedule-gated: %v", err)
	}
}

func TestUpdateRejectedWhileGradientSetOpen(t *testing.T) {
	// §IV soundness: a global update must not land while assigned
	// trainers may still publish — the accumulator could otherwise gain
	// a gradient after the update was verified against it.
	f := newFixture(t, true)
	f.dir.SetAssignment(0, "t0", "agg")
	f.dir.SetAssignment(0, "t1", "agg")
	base := time.Now()
	f.dir.SetClock(func() time.Time { return base })
	f.dir.SetSchedule(0, base.Add(time.Hour)) // t_train far in the future

	b0 := f.uploadGradient(t, "t0", 0, 0, 4) // only 1 of 2 trainers so far
	err := f.publishUpdate(t, "agg", 0, 0, b0)
	if !errors.Is(err, ErrTooEarly) {
		t.Fatalf("expected ErrTooEarly, got %v", err)
	}
	// Once the second gradient arrives, the (complete) update is accepted.
	b1 := f.uploadGradient(t, "t1", 0, 0, 4)
	sum, err := model.Sum(f.field, b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.publishUpdate(t, "agg", 0, 0, sum); err != nil {
		t.Fatalf("complete update rejected: %v", err)
	}
}

func TestPartialSetAcceptedAfterTTrain(t *testing.T) {
	// After t_train passes, an update over the gradients that made it in
	// time is legitimate (late trainers miss the round).
	f := newFixture(t, true)
	f.dir.SetAssignment(1, "t0", "agg")
	f.dir.SetAssignment(1, "t1", "agg")
	base := time.Now()
	clock := base
	f.dir.SetClock(func() time.Time { return clock })
	f.dir.SetSchedule(0, base.Add(time.Minute))

	b0 := f.uploadGradient(t, "t0", 0, 1, 4)
	clock = base.Add(2 * time.Minute) // t_train passes; t1 never made it
	if err := f.publishUpdate(t, "agg", 0, 1, b0); err != nil {
		t.Fatalf("post-deadline partial update rejected: %v", err)
	}
}

func TestRecordsForIterFiltersUpdates(t *testing.T) {
	f := newFixture(t, false)
	f.uploadGradient(t, "t0", 3, 0, 4)
	f.uploadGradient(t, "t1", 3, 1, 4)
	f.uploadGradient(t, "t9", 4, 0, 4) // different iteration
	b := f.uploadGradient(t, "t2", 3, 2, 4)
	if err := f.publishUpdate(t, "agg", 3, 2, b); err != nil {
		t.Fatal(err)
	}
	recs := f.dir.RecordsForIter(3)
	if len(recs) != 3 {
		t.Fatalf("expected 3 records (updates excluded), got %d", len(recs))
	}
	for _, rec := range recs {
		if rec.Addr.Type == TypeUpdate {
			t.Fatal("global update leaked into GC listing")
		}
		if rec.Addr.Iter != 3 {
			t.Fatal("foreign iteration leaked into GC listing")
		}
	}
	// Deterministic order: sorted by type, partition, uploader.
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1].Addr, recs[i].Addr
		if a.Partition > b.Partition {
			t.Fatalf("records not sorted: %+v before %+v", a, b)
		}
	}
}
