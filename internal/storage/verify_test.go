package storage

import (
	"bytes"
	"context"
	"testing"

	"ipls/internal/cid"
	"ipls/internal/model"
	"ipls/internal/obs"
)

// assertProvidersHold fails if a provider record for c names a node whose
// store lacks the block, or whose copy does not hash to c.
func assertProvidersHold(t *testing.T, n *Network, c cid.CID) {
	t.Helper()
	for _, id := range n.providerIDs(c) {
		nd, err := n.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if has, _ := nd.store.Has(context.Background(), c); !has {
			t.Errorf("%s is announced for %s but does not hold it", id, c.Short())
		}
	}
}

// TestRepairSkipsCorruptHolder: RepairScan copies only a copy that hashes to
// the CID. The first holder in ID order carries a tampered copy (served
// as-is by the mem backend, refused with ErrIntegrity by the fs backend), so
// the repair must come from the second holder, and the new replica must be
// readable under c.
func TestRepairSkipsCorruptHolder(t *testing.T) {
	ctx := context.Background()
	n, _ := newTestNetwork(t, 4, 3)
	data := []byte("block repaired from a sound replica")
	c, err := n.Put(ctx, "node-00", data) // ring placement: node-01, node-02
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Corrupt("node-00", c); err != nil {
		t.Fatal(err)
	}
	if err := n.Depart("node-02"); err != nil {
		t.Fatal(err)
	}
	report, err := n.RepairScan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Repaired != 1 || report.Remaining != 0 {
		t.Fatalf("repair report %+v, want one copy and nothing remaining", report)
	}
	got, err := n.Get(ctx, "node-03", c)
	if err != nil {
		t.Fatalf("the repaired replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the repaired replica holds the tampered bytes")
	}
	assertProvidersHold(t, n, c)

	// With the sound replica gone too, only the tampered copy is left: the
	// block is lost, not re-replicated from it.
	if err := n.Depart("node-01"); err != nil {
		t.Fatal(err)
	}
	if err := n.Depart("node-03"); err != nil {
		t.Fatal(err)
	}
	if err := n.Rejoin("node-02"); err != nil {
		t.Fatal(err)
	}
	if report, err = n.RepairScan(ctx); err != nil {
		t.Fatal(err)
	}
	if report.Repaired != 0 || report.Lost != 1 {
		t.Fatalf("repair report %+v, want the block lost and nothing copied", report)
	}
	assertProvidersHold(t, n, c)
}

// TestMergeFetchSkipsCorruptHolder: a provider merging a block it does not
// hold fetches a copy that hashes to the CID, skipping a tampered holder,
// and then holds and announces exactly that block.
func TestMergeFetchSkipsCorruptHolder(t *testing.T) {
	ctx := context.Background()
	n, q := newTestNetwork(t, 3, 2)
	reg := obs.NewRegistry()
	n.SetMetrics(reg)
	block, err := model.Quantize(q, []float64{1.5, -2.25, 0.125})
	if err != nil {
		t.Fatal(err)
	}
	data, err := block.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Put(ctx, "node-00", data) // replica on node-01
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Corrupt("node-00", c); err != nil {
		t.Fatal(err)
	}
	out, err := n.MergeGet(ctx, "node-02", []cid.CID{c})
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Merge(n.field, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("the merge used the tampered copy")
	}
	if got := reg.Counter("remote_fetches_total").Value(); got != 1 {
		t.Fatalf("remote_fetches_total = %d, want 1", got)
	}
	got, err := n.Get(ctx, "node-02", c)
	if err != nil {
		t.Fatalf("the merging node announced %s but cannot serve it: %v", c.Short(), err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the merging node kept the tampered bytes")
	}
	found := false
	for _, id := range n.providerIDs(c) {
		found = found || id == "node-02"
	}
	if !found {
		t.Fatal("the merging node did not announce the block it fetched")
	}
	assertProvidersHold(t, n, c)
}
