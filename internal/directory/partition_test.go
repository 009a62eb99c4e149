package directory

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ipls/internal/cid"
	"ipls/internal/model"
)

// gatedFetcher parks every Get until release is closed, announcing each
// parked call on entered.
type gatedFetcher struct {
	BlockFetcher
	entered chan struct{}
	release chan struct{}
}

func (g *gatedFetcher) Get(ctx context.Context, node string, c cid.CID) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.BlockFetcher.Get(ctx, node, c)
}

// TestPartitionIndependence parks partition 0's verifiable global publish
// inside its block fetch and requires partition 1's publish, gradient poll
// and update query to return meanwhile.
func TestPartitionIndependence(t *testing.T) {
	f := newFixture(t, true)
	gate := &gatedFetcher{BlockFetcher: f.store, entered: make(chan struct{}, 1), release: make(chan struct{})}
	var once sync.Once
	open := func() { once.Do(func() { close(gate.release) }) }
	t.Cleanup(open)
	f.dir = New(f.params, gate)

	sum := f.uploadGradient(t, "t0", 0, 0, 4)
	data, _ := sum.Encode()
	c, _ := f.store.Put(context.Background(), "ipfs-1", data)
	published := make(chan error, 1)
	go func() {
		published <- f.dir.Publish(context.Background(), Record{
			Addr: Addr{Uploader: "agg-0", Partition: 0, Iter: 0, Type: TypeUpdate},
			CID:  c, Node: "ipfs-1",
		})
	}()
	<-gate.entered

	other, _ := f.gradientRecord(t, "t0", 0, 1, 4)
	done := make(chan error, 1)
	go func() {
		if err := f.dir.Publish(context.Background(), other); err != nil {
			done <- err
			return
		}
		if got := f.dir.GradientsFor(context.Background(), 0, 1, ""); len(got) != 1 {
			done <- fmt.Errorf("GradientsFor on partition 1 = %d records, want 1", len(got))
			return
		}
		if _, err := f.dir.Update(context.Background(), 0, 1); !errors.Is(err, ErrNotFound) {
			done <- fmt.Errorf("Update on partition 1: %v", err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partition 1 blocked behind partition 0's verification")
	}

	open()
	if err := <-published; err != nil {
		t.Fatalf("partition 0 update: %v", err)
	}
}

// TestSetAssignmentIsIdempotent re-applies and moves assignments: a
// trainer is listed once, under its latest aggregator, and the closure
// gate counts it once.
func TestSetAssignmentIsIdempotent(t *testing.T) {
	f := newFixture(t, true)
	for pass := 0; pass < 2; pass++ { // a restart re-applies its config
		for _, tr := range []string{"t0", "t1", "t2"} {
			f.dir.SetAssignment(0, tr, "agg-a")
		}
	}
	f.dir.SetAssignment(0, "t1", "agg-b")
	pt := f.dir.lock(0)
	a, b := pt.trainers["agg-a"], pt.trainers["agg-b"]
	pt.mu.Unlock()
	if len(a) != 2 || a[0] != "t0" || a[1] != "t2" {
		t.Fatalf("agg-a trainers = %v, want [t0 t2]", a)
	}
	if len(b) != 1 || b[0] != "t1" {
		t.Fatalf("agg-b trainers = %v, want [t1]", b)
	}
	var blocks []model.Block
	for _, tr := range []string{"t0", "t1", "t2"} {
		blocks = append(blocks, f.uploadGradient(t, tr, 0, 0, 4))
	}
	if _, n, err := f.dir.AggregatorAccumulator(context.Background(), 0, 0, "agg-b"); err != nil || n != 1 {
		t.Fatalf("agg-b accumulator count = %d (%v), want 1", n, err)
	}
	// Three trainers, three gradients: the set is closed before t_train.
	f.dir.SetSchedule(0, time.Now().Add(time.Hour))
	sum, _ := model.Sum(f.field, blocks...)
	if err := f.publishUpdate(t, "agg-a", 0, 0, sum); err != nil {
		t.Fatalf("complete gradient set rejected: %v", err)
	}
}

// TestPartitionLoadSpread runs traffic on several partitions and checks
// the per-partition counters: each busy partition carries only its own
// share, and Stats is their sum plus the service-wide request count.
func TestPartitionLoadSpread(t *testing.T) {
	f := newFixture(t, false)
	for p := 0; p < 4; p++ {
		for i := 0; i <= p; i++ {
			f.uploadGradient(t, fmt.Sprintf("t%d", i), 0, p, 4)
		}
		f.dir.GradientsFor(context.Background(), 0, p, "")
	}
	per := f.dir.PartitionStats()
	if len(per) != 4 {
		t.Fatalf("PartitionStats has %d partitions, want 4", len(per))
	}
	var sum Stats
	for p, st := range per {
		if st.Publishes != p+1 || st.Lookups != 1 || st.Requests != 0 {
			t.Fatalf("partition %d stats = %+v, want %d publishes and 1 lookup", p, st, p+1)
		}
		sum.add(st)
	}
	sum.Requests = 10 // one Publish per gradient
	if got := f.dir.Stats(); got != sum {
		t.Fatalf("Stats = %+v, want the per-partition sum %+v", got, sum)
	}
}
