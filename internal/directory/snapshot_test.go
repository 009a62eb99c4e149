package directory

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipls/internal/model"
)

// goldenPath holds a snapshot of goldenHistory recorded before strikes,
// quarantine and expunge tombstones were persisted. All are omitted when
// empty, so the same history must still serialize to exactly these bytes.
const goldenPath = "testdata/snapshot-v1.json"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from goldenHistory")

// goldenHistory drives a verifiable directory through one deterministic
// iteration on two partitions: assignments with two aggregators, gradients,
// a partial update, a rejected and an accepted global update, schedules
// and lookups, so every snapshot field is populated.
func goldenHistory(t *testing.T) *Service {
	t.Helper()
	f := newFixture(t, true)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	f.dir.SetClock(func() time.Time { return base })
	f.dir.SetSchedule(0, base.Add(time.Minute))
	f.dir.SetSchedule(1, base.Add(2*time.Minute))
	for _, tr := range []string{"t0", "t1", "t2"} {
		agg := "agg-a"
		if tr == "t2" {
			agg = "agg-b"
		}
		f.dir.SetAssignment(0, tr, agg)
		f.dir.SetAssignment(1, tr, "agg-c")
	}
	blocks := map[int][]model.Block{}
	for _, p := range []int{0, 1} {
		for _, tr := range []string{"t0", "t1", "t2"} {
			blocks[p] = append(blocks[p], f.uploadGradient(t, tr, 0, p, 4))
		}
	}
	field := f.field
	partial, _ := model.Sum(field, blocks[0][:2]...)
	data, _ := partial.Encode()
	c, _ := f.store.Put(context.Background(), "ipfs-1", data)
	if err := f.dir.Publish(context.Background(), Record{
		Addr: Addr{Uploader: "agg-a", Partition: 0, Iter: 0, Type: TypePartialUpdate},
		CID:  c, Node: "ipfs-1",
	}); err != nil {
		t.Fatal(err)
	}
	full0, _ := model.Sum(field, blocks[0]...)
	if err := f.publishUpdate(t, "agg-b", 0, 0, full0); err != nil {
		t.Fatal(err)
	}
	dropped, _ := model.Sum(field, blocks[1][:2]...)
	if err := f.publishUpdate(t, "agg-c", 0, 1, dropped); !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("dropped-gradient update: %v", err)
	}
	full1, _ := model.Sum(field, blocks[1]...)
	if err := f.publishUpdate(t, "agg-c", 0, 1, full1); err != nil {
		t.Fatal(err)
	}
	f.dir.GradientsFor(context.Background(), 0, 1, "agg-c")
	f.dir.PartialUpdates(context.Background(), 0, 0)
	return f.dir
}

func TestSnapshotGolden(t *testing.T) {
	snap, err := goldenHistory(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, golden) {
		t.Fatalf("snapshot of the golden history changed:\n got %s\nwant %s", snap, golden)
	}
	restored, err := Restore(golden, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, golden) {
		t.Fatalf("restore∘snapshot of the golden file is not byte-identical:\n got %s\nwant %s", again, golden)
	}
}

// TestSnapshotCarriesQuarantineAndExpunge crashes a directory after it
// expunged a Byzantine gradient and quarantined its trainer. The restored
// directory must keep rejecting the trainer and must still count the
// expunged gradient toward gradient-set closure.
func TestSnapshotCarriesQuarantineAndExpunge(t *testing.T) {
	f := newFixture(t, true)
	base := time.Now()
	f.dir.SetClock(func() time.Time { return base })
	f.dir.SetSchedule(0, base.Add(time.Hour))
	for _, tr := range []string{"t0", "t1", "t2"} {
		f.dir.SetAssignment(0, tr, "agg-a")
	}
	honest := []model.Block{f.uploadGradient(t, "t0", 0, 0, 4), f.uploadGradient(t, "t1", 0, 0, 4)}
	evil, _ := f.gradientRecord(t, "t2", 0, 0, 4)
	_, other := f.gradientRecord(t, "t2", 0, 0, 4)
	evil.Commitment, _ = f.params.Commit(other.Values) // commits to bytes it did not store
	if err := f.dir.Publish(context.Background(), evil); err != nil {
		t.Fatal(err)
	}
	if err := f.dir.ExpungeGradient(context.Background(), evil.Addr); err != nil {
		t.Fatal(err)
	}
	f.dir.Quarantine("t2", 1)

	snap, err := f.dir.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap, f.params, f.store)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetClock(func() time.Time { return base })
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snap) {
		t.Fatalf("restore∘snapshot not byte-identical:\n got %s\nwant %s", again, snap)
	}
	if q := restored.Quarantined(); q["t2"] != 1 || len(q) != 1 {
		t.Fatalf("restored quarantine = %v, want map[t2:1]", q)
	}
	next, _ := f.gradientRecord(t, "t2", 1, 0, 4)
	if err := restored.Publish(context.Background(), next); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("restored directory accepted a quarantined trainer: %v", err)
	}
	// Two honest gradients plus one tombstone close the three-trainer set
	// before t_train.
	f.dir = restored
	sum, _ := model.Sum(f.field, honest...)
	if err := f.publishUpdate(t, "agg-a", 0, 0, sum); err != nil {
		t.Fatalf("honest update after restore: %v", err)
	}
	if _, err := Restore([]byte("junk"), nil, nil); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestStrikesSurviveRestore crashes a directory between a trainer's two
// expunged uploads. The restored directory remembers the first strike, so
// the second quarantines the trainer from the same iteration as on a
// directory that never crashed.
func TestStrikesSurviveRestore(t *testing.T) {
	ctx := context.Background()
	expungeTwice := func(f *fixture, crash bool) map[string]int {
		first := f.publishByzantine(t, "t2", 0, 0)
		if err := f.dir.ExpungeGradient(ctx, first.Addr); err != nil {
			t.Fatal(err)
		}
		if crash {
			snap, err := f.dir.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if f.dir, err = Restore(snap, f.params, f.store); err != nil {
				t.Fatal(err)
			}
		}
		second := f.publishByzantine(t, "t2", 1, 1)
		if err := f.dir.ExpungeGradient(ctx, second.Addr); err != nil {
			t.Fatal(err)
		}
		return f.dir.Quarantined()
	}
	uncrashed := expungeTwice(newFixture(t, true), false)
	restored := expungeTwice(newFixture(t, true), true)
	if len(uncrashed) != 1 || uncrashed["t2"] != 2 {
		t.Fatalf("uncrashed quarantine = %v, want map[t2:2]", uncrashed)
	}
	if len(restored) != 1 || restored["t2"] != uncrashed["t2"] {
		t.Fatalf("restored quarantine = %v, uncrashed %v", restored, uncrashed)
	}
}

// TestSnapshotFileRoundTrip round-trips a snapshot through the atomic file
// helpers: save into a directory that does not exist yet, restore from
// disk, and treat a missing file as a first boot.
func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := goldenHistory(t)
	path := filepath.Join(t.TempDir(), "nested", "directory.json")
	if err := dir.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFile(path, nil, nil)
	if err != nil || restored == nil {
		t.Fatalf("RestoreFile = (%v, %v)", restored, err)
	}
	want, _ := dir.Snapshot()
	got, _ := restored.Snapshot()
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot changed across the file round-trip")
	}
	none, err := RestoreFile(path+".absent", nil, nil)
	if err != nil || none != nil {
		t.Fatalf("missing snapshot: (%v, %v), want (nil, nil)", none, err)
	}
}

// FuzzRestore feeds arbitrary bytes to Restore: it must never panic, and
// whatever it accepts must reach a fixpoint after one Snapshot.
func FuzzRestore(f *testing.F) {
	// Small seeds with one entry of every kind; the 5 KB golden file makes
	// the fuzzer's input minimization crawl.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"records":[{"addr":{"uploader":"t0","partition":1,"iter":0,"type":1},"cid":"ab","node":"n"}],` +
		`"gradients":[{"iter":0,"partition":1,"recs":[{"addr":{"uploader":"t0","partition":1,"iter":0,"type":1}}]}],` +
		`"accPartition":[{"iter":0,"partition":1,"commitment":"AQI="}],` +
		`"accAggregator":[{"iter":0,"partition":1,"aggregator":"a","commitment":"AQI=","count":1}],` +
		`"finals":[{"addr":{"uploader":"a","partition":1,"iter":0,"type":3}}],` +
		`"schedules":[{"iter":0,"tTrain":"2026-01-01T00:00:00+02:00"}],"stats":{"Publishes":2}}`))
	f.Add([]byte(`{"strikes":[{"trainer":"t2","count":2}],"quarantined":[{"trainer":"t2","fromIter":1}],"expunged":[{"iter":0,"partition":3,"count":1}],` +
		`"assignments":[{"partition":0,"trainer":"t0","aggregator":"a"},{"partition":0,"trainer":"t0","aggregator":"b"}]}`))
	f.Add([]byte(`{"schedules":[{"iter":0,"tTrain":"2026-01-01T00:00:00+24:00"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(data, nil, nil)
		if err != nil {
			return
		}
		once, err := s.Snapshot()
		if err != nil {
			t.Fatalf("restored state does not snapshot: %v", err)
		}
		s2, err := Restore(once, nil, nil)
		if err != nil {
			t.Fatalf("own snapshot does not restore: %v", err)
		}
		twice, err := s2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("Snapshot∘Restore is not a fixpoint:\n%s\n%s", once, twice)
		}
	})
}
